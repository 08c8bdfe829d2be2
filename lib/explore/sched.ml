(* Pluggable hart schedulers for [Machine.run_scheduled].

   A scheduler is a (possibly stateful) pick function: given the
   machine, the global step counter and the hart that ran last, return
   the hart to step next. All randomness comes from an explicit
   [Mir_util.Prng.t], so a scheduler replays bit-identically from its
   seed. Trap entries are the preemption-interesting points: a hart
   whose previous step ended in a trap ([Hart.just_trapped]) is where
   the random walk and PCT schedulers concentrate their switches,
   since monitor emulation windows open there. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Prng = Mir_util.Prng

type t = {
  name : string;
  pick : Machine.t -> step:int -> last:int -> int;
}

(* Fixed time slices, hart 0 first — the cadence [Machine.run] itself
   uses. The explorer's baseline: a scheduler with no preemption at
   interesting points at all. *)
let round_robin ?(slice = 32) ~nharts () =
  {
    name = "round-robin";
    pick = (fun _ ~step ~last:_ -> step / slice mod nharts);
  }

(* Seeded random walk. Expected slice length [avg_slice]; after a trap
   entry the switch probability jumps to 1/2, so preemption
   concentrates on the windows where the monitor has just begun (or
   just finished) emulating on behalf of the interrupted hart.
   [max_switches] bounds the number of preemptions the walk will take
   and [start_step] delays the first one — the shrinker uses small
   bounds with a randomized start so the budget is spent around one
   region of the run instead of on boot-time traps. *)
let random ?(avg_slice = 8) ?(max_switches = max_int) ?(start_step = 0) ~prng
    ~nharts () =
  let taken = ref 0 in
  {
    name = "random";
    pick =
      (fun m ~step ~last ->
        if last < 0 then Prng.int_below prng nharts
        else if step < start_step || !taken >= max_switches then last
        else
          let trapped = m.Machine.harts.(last).Hart.just_trapped in
          let switch =
            if trapped then Prng.int_below prng 2 = 0
            else Prng.int_below prng avg_slice = 0
          in
          if (not switch) || nharts < 2 then last
          else begin
            incr taken;
            (last + 1 + Prng.int_below prng (nharts - 1)) mod nharts
          end);
  }

(* PCT-style priority schedule (Burckhardt et al.): harts run strictly
   by a random priority order, and at [depth] randomly chosen
   preemption-interesting events (trap entries observed so far) the
   currently-highest runnable hart is demoted below everyone else.
   With d demotion points this probes all bugs of preemption depth
   <= d, one schedule at a time. *)
let pct ?(events = 64) ?(depth = 2) ~prng ~nharts () =
  let prio = Array.init nharts (fun i -> i) in
  (* Fisher-Yates from the schedule's prng *)
  for i = nharts - 1 downto 1 do
    let j = Prng.int_below prng (i + 1) in
    let tmp = prio.(i) in
    prio.(i) <- prio.(j);
    prio.(j) <- tmp
  done;
  let change_at = Array.init depth (fun _ -> 1 + Prng.int_below prng events) in
  let event_count = ref 0 in
  let floor = ref (-1) in
  let top m =
    let best = ref 0 in
    Array.iter
      (fun h -> if prio.(h.Hart.id) > prio.(!best) then best := h.Hart.id)
      m.Machine.harts;
    !best
  in
  {
    name = "pct";
    pick =
      (fun m ~step:_ ~last ->
        if last >= 0 && m.Machine.harts.(last).Hart.just_trapped then begin
          incr event_count;
          if Array.exists (fun c -> c = !event_count) change_at then begin
            let t = top m in
            prio.(t) <- !floor;
            decr floor
          end
        end;
        top m);
  }

(* Exhaustive small-bound enumeration: every schedule whose switches
   sit on a coarse step grid, up to [max_switches] switches within
   [horizon] steps. The sequence is finite and deterministic; the
   explorer walks it depth-first. Each element is a switch list
   suitable for {!of_switches}. *)
let dfs_schedules ~nharts ~horizon ~grid ~max_switches =
  let harts = List.init nharts (fun h -> h) in
  let rec gen pos cur left : (int * int) list Seq.t =
    if pos >= horizon then Seq.return []
    else
      let stay = gen (pos + grid) cur left in
      let alts =
        if left = 0 then Seq.empty
        else
          Seq.concat_map
            (fun h ->
              if h = cur then Seq.empty
              else
                Seq.map
                  (fun tail -> (pos, h) :: tail)
                  (gen (pos + grid) h (left - 1)))
            (List.to_seq harts)
      in
      Seq.append stay alts
  in
  Seq.concat_map
    (fun h0 -> Seq.map (fun tail -> (0, h0) :: tail) (gen grid h0 max_switches))
    (List.to_seq harts)

(* Replay a recorded switch list: from each (step, hart) switch point
   onward run that hart. Steps before the first switch (there are none
   in well-formed schedules, which start at step 0) run hart 0. *)
let of_switches switches =
  let rem = ref switches in
  let cur = ref 0 in
  {
    name = "replay";
    pick =
      (fun _ ~step ~last:_ ->
        (match !rem with
        | (at, h) :: tl when at <= step ->
            cur := h;
            rem := tl
        | _ -> ());
        !cur);
  }
