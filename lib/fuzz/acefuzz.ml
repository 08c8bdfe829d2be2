(* ACE/COVH policy op class for the differential fuzzer.

   The paging fuzzer checks the machine against itself; this class
   checks the ACE confidential-VM policy against a pure model of its
   steal/return contract. Each execution builds a fresh two-hart
   monitor with the ACE policy installed and drives the policy hooks
   directly — staged COVH ecalls (tsm_info / promote / run_vcpu /
   destroy), voluntary teecall exits and machine interrupts, tagged
   with the issuing hart — while a model FSM predicts every observable:
   the SBI return pair, the resumed pc and privilege, page ownership,
   the medeleg swap, scrub-on-destroy and the steal/return counters.

   The white-box harness replays MiniSBI's boot-time vPMP programming
   (entry 0 all-allow for S/U) so the policy's per-CVM deny entries are
   load-bearing: if a deny entry goes missing, the confidentiality
   invariant sees the page become readable, exactly like the explorer's
   cvm-confidential oracle.

   Generation is deterministic from the root seed via the config-rooted
   PRNG streams, and an (op class x outcome class) edge map tracks
   behavioural coverage. Vectors serialize to JSONL ([ace-*.jsonl] in
   test/vectors/); the campaign, replay and report are {!Difftest}'s. *)

module Prng = Mir_util.Prng
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Pmp = Mir_rv.Pmp
module Priv = Mir_rv.Priv
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Cause = Mir_rv.Cause
module Ms = Mir_rv.Csr_spec.Mstatus
module Platform = Mir_platform.Platform
module Layout = Mir_firmware.Layout
module Ace = Mir_policies.Policy_ace
module Config = Miralis.Config
module Monitor = Miralis.Monitor
module Policy = Miralis.Policy
module Vhart = Miralis.Vhart
module Vfm_stats = Miralis.Vfm_stats
module Event = Mir_trace.Event

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Tsm_info of { hart : int }
  | Promote of { hart : int; base : int64; size : int64; entry : int64 }
  | Run of { hart : int; id : int }
  | Teecall of { hart : int; value : int64 }
      (** a COVH call issued from inside a running CVM: a voluntary
          exit carrying [value] (on a non-stolen hart it degenerates
          to tsm_info) *)
  | Destroy of { hart : int; id : int }
  | Interrupt of { hart : int; delta : int64 }
      (** a machine interrupt; if the hart runs a CVM the vcpu is
          suspended at entry+[delta] *)

let op_hart = function
  | Tsm_info { hart }
  | Promote { hart; _ }
  | Run { hart; _ }
  | Teecall { hart; _ }
  | Destroy { hart; _ }
  | Interrupt { hart; _ } ->
      hart

(* ------------------------------------------------------------------ *)
(* Model: the steal/return contract as a pure FSM                      *)
(* ------------------------------------------------------------------ *)

type mcvm = {
  mid : int;
  mbase : int64;
  msize : int64;
  mentry : int64;
  mutable mstate : [ `Ready | `Running | `Interrupted ];
  mutable mowner : int option;
  mutable saved_pc : int64;
  mutable saved_a : int64 * int64;
}

type model = {
  mutable live : mcvm list;  (* destroyed CVMs are dropped *)
  mutable next : int;
  mrun : (int, mcvm) Hashtbl.t;  (* hart -> the CVM it stole *)
  mhost_pc : (int, int64) Hashtbl.t;  (* hart -> host resume pc *)
  mutable steals : int;
  mutable returns : int;
  cur_a : (int64 * int64) array;  (* expected (a0, a1) per hart *)
}

let nharts = 2

let model_create () =
  {
    live = [];
    next = 0;
    mrun = Hashtbl.create 4;
    mhost_pc = Hashtbl.create 4;
    steals = 0;
    returns = 0;
    cur_a = Array.make nharts (0L, 0L);
  }

let pages_of ~base ~size =
  let n = Int64.to_int (Int64.div size Ace.page_size) in
  List.init n (fun i ->
      Int64.add base (Int64.mul (Int64.of_int i) Ace.page_size))

let promote_ok model ~base ~size =
  size >= Ace.page_size
  && Int64.logand size (Int64.sub size 1L) = 0L
  && Int64.logand base (Int64.sub size 1L) = 0L
  && List.length model.live < Ace.pmp_slots - 1
  && List.for_all
       (fun p ->
         List.for_all
           (fun c ->
             not (List.mem p (pages_of ~base:c.mbase ~size:c.msize)))
           model.live)
       (pages_of ~base ~size)

(* Outcome classes for the coverage map. *)
let cls_ret_ok = 0
let cls_ret_invalid = 1
let cls_entered = 2
let cls_resumed = 3
let cls_teecall = 4
let cls_suspended = 5
let cls_noop = 6

let op_class = function
  | Tsm_info _ -> 0
  | Promote _ -> 1
  | Run _ -> 2
  | Teecall _ -> 3
  | Destroy _ -> 4
  | Interrupt _ -> 5

type expect = {
  e_a : int64 * int64;  (* a0, a1 after the op *)
  e_pc : int64 option;  (* None: unchanged / not checked *)
  e_priv : Priv.t option;
  cls : int;
}

(* The staged a0 of each ecall op — what a teecall exit returns as its
   value when the op lands on a stolen hart. *)
let staged_a0 = function
  | Tsm_info _ -> 0L
  | Promote { base; _ } -> base
  | Run { id; _ } -> Int64.of_int id
  | Teecall { value; _ } -> value
  | Destroy { id; _ } -> Int64.of_int id
  | Interrupt { delta; _ } -> delta

(* The staged (a1, a2): promote's size and entry, zero otherwise. *)
let staged_a12 = function
  | Promote { size; entry; _ } -> (size, entry)
  | _ -> (0L, 0L)

let op_name = function
  | Tsm_info _ -> "tsm_info"
  | Promote _ -> "promote"
  | Run _ -> "run"
  | Teecall _ -> "teecall"
  | Destroy _ -> "destroy"
  | Interrupt _ -> "interrupt"

(* One op as its vector line; also how divergences name it. *)
let line_of_op op =
  let a1, a2 = staged_a12 op in
  Printf.sprintf {|{"op":"%s","h":%d,"a0":"0x%Lx","a1":"0x%Lx","a2":"0x%Lx"}|}
    (op_name op) (op_hart op) (staged_a0 op) a1 a2

(* Where an interrupted CVM vcpu is suspended: [delta] steps of
   progress past the entry point, folded into the region. *)
let cvm_pc c ~delta =
  Int64.add c.mentry
    (Int64.logand (Int64.rem delta c.msize) (Int64.lognot 3L))

(* Advance the model by one op and return the expected observables. *)
let predict model op ~os_pc =
  let h = op_hart op in
  let ret ?(cls = cls_ret_ok) a0 a1 =
    model.cur_a.(h) <- (a0, a1);
    {
      e_a = (a0, a1);
      e_pc = Some (Int64.add os_pc 4L);
      e_priv = Some Priv.S;
      cls;
    }
  in
  match (Hashtbl.find_opt model.mrun h, op) with
  | Some c, Interrupt { delta; _ } ->
      (* suspend: ownership returns, the vcpu context parks *)
      c.mstate <- `Interrupted;
      c.saved_pc <- cvm_pc c ~delta;
      c.saved_a <- model.cur_a.(h);
      c.mowner <- None;
      Hashtbl.remove model.mrun h;
      model.returns <- model.returns + 1;
      model.cur_a.(h) <- (Ace.err_interrupted, 0L);
      {
        e_a = (Ace.err_interrupted, 0L);
        e_pc = None;
        e_priv = None;
        cls = cls_suspended;
      }
  | Some c, _ ->
      (* any COVH call from a stolen hart is a voluntary exit *)
      let value = staged_a0 op in
      c.mstate <- `Ready;
      c.mowner <- None;
      Hashtbl.remove model.mrun h;
      model.returns <- model.returns + 1;
      model.cur_a.(h) <- (0L, value);
      {
        e_a = (0L, value);
        e_pc = Some (Hashtbl.find model.mhost_pc h);
        e_priv = Some Priv.S;
        cls = cls_teecall;
      }
  | None, Interrupt _ ->
      { e_a = model.cur_a.(h); e_pc = None; e_priv = None; cls = cls_noop }
  | None, (Tsm_info _ | Teecall _) ->
      ret 0L (Int64.of_int (List.length model.live))
  | None, Promote { base; size; entry; _ } ->
      if not (promote_ok model ~base ~size) then
        ret ~cls:cls_ret_invalid (-3L) 0L
      else begin
        model.next <- model.next + 1;
        let c =
          {
            mid = model.next;
            mbase = base;
            msize = size;
            mentry = entry;
            mstate = `Ready;
            mowner = None;
            saved_pc = entry;
            saved_a = (0L, 0L);
          }
        in
        model.live <- c :: model.live;
        ret 0L (Int64.of_int c.mid)
      end
  | None, Run { id; _ } -> begin
      match List.find_opt (fun c -> c.mid = id) model.live with
      | None -> ret ~cls:cls_ret_invalid (-3L) 0L
      | Some c -> begin
          match c.mstate with
          | `Running -> ret ~cls:cls_ret_invalid (-3L) 0L
          | `Ready | `Interrupted ->
              let resumed = c.mstate = `Interrupted in
              let pc = if resumed then c.saved_pc else c.mentry in
              let a = if resumed then c.saved_a else (0L, 0L) in
              c.mstate <- `Running;
              c.mowner <- Some h;
              Hashtbl.replace model.mrun h c;
              Hashtbl.replace model.mhost_pc h (Int64.add os_pc 4L);
              model.steals <- model.steals + 1;
              model.cur_a.(h) <- a;
              {
                e_a = a;
                e_pc = Some pc;
                e_priv = Some Priv.U;
                cls = (if resumed then cls_resumed else cls_entered);
              }
        end
    end
  | None, Destroy { id; _ } -> begin
      match List.find_opt (fun c -> c.mid = id) model.live with
      | None -> ret ~cls:cls_ret_invalid (-3L) 0L
      | Some c when c.mowner <> None -> ret ~cls:cls_ret_invalid (-3L) 0L
      | Some c ->
          model.live <- List.filter (fun x -> x.mid <> c.mid) model.live;
          ret 0L 0L
    end

(* ------------------------------------------------------------------ *)
(* Harness: a fresh monitor with the real policy, hooks driven direct  *)
(* ------------------------------------------------------------------ *)

type harness = { machine : Machine.t; mir : Monitor.t; astate : Ace.state }

(* A MiniSBI-like host delegation mask; bit 8 (ecall-from-U) set, so
   the policy's steal-time medeleg swap is observable. *)
let host_medeleg = 0xB109L
let os_pc_base = 0x8020_0000L

let harness_create () =
  let p = Platform.qemu_virt in
  let mc = { p.Platform.machine with Machine.nharts } in
  let m = Machine.create mc in
  let policy, astate = Ace.create () in
  let config =
    Config.make ~policy_pmp_slots:Ace.pmp_slots ~cost:p.Platform.cost
      ~machine:mc ()
  in
  let mir = Monitor.create ~policy config m in
  Monitor.boot mir ~fw_entry:Layout.fw_base;
  Array.iter
    (fun hart ->
      let ctx = Monitor.policy_ctx mir hart in
      let vh = ctx.Policy.vhart in
      vh.Vhart.world <- Vhart.Os;
      (* MiniSBI programs vPMP entry 0 all-allow for S/U; without it
         the no-match default would mask a missing deny entry. *)
      Csr_file.write_raw vh.Vhart.csr (Csr_addr.pmpaddr 0) (-1L);
      Csr_file.write_raw vh.Vhart.csr (Csr_addr.pmpcfg 0) 0x1FL;
      Csr_file.write_raw hart.Hart.csr Csr_addr.medeleg host_medeleg;
      Monitor.reinstall_pmp mir hart)
    m.Machine.harts;
  { machine = m; mir; astate }

let marker id = Int64.logor 0x4143_4500_0000_0000L (Int64.of_int id)

type mismatch = {
  op_index : int;
  op : string;
  observed : string;
  expected : string;
}

let mismatch i op ~observed ~expected =
  Some { op_index = i; op = line_of_op op; observed; expected }

(* Invariants checked after every op, against the model's view. *)
let invariant_violation t model =
  let confidential =
    List.find_map
      (fun c ->
        Array.to_list t.machine.Machine.harts
        |> List.find_map (fun (hart : Hart.t) ->
               let readable =
                 Pmp.check_ranges
                   (Csr_file.pmp_ranges hart.Hart.csr)
                   ~priv:Priv.S Pmp.Read ~addr:c.mbase ~size:8
               in
               let should = c.mowner = Some hart.Hart.id in
               if readable = should then None
               else
                 Some
                   (Printf.sprintf
                      "cvm %d page %#Lx %s from hart %d (owner %s)" c.mid
                      c.mbase
                      (if readable then "readable" else "unreadable")
                      hart.Hart.id
                      (match c.mowner with
                      | Some o -> string_of_int o
                      | None -> "none"))))
      model.live
  in
  let medeleg () =
    Array.to_list t.machine.Machine.harts
    |> List.find_map (fun (hart : Hart.t) ->
           let v = Csr_file.read_raw hart.Hart.csr Csr_addr.medeleg in
           let stolen = Hashtbl.mem model.mrun hart.Hart.id in
           let bit8 = Int64.logand v 0x100L <> 0L in
           if stolen && bit8 then
             Some
               (Printf.sprintf "hart %d stolen but medeleg=%#Lx keeps bit 8"
                  hart.Hart.id v)
           else if (not stolen) && v <> host_medeleg then
             Some
               (Printf.sprintf "hart %d returned but medeleg=%#Lx /= %#Lx"
                  hart.Hart.id v host_medeleg)
           else None)
  in
  let counters () =
    let s = t.mir.Monitor.stats in
    if s.Vfm_stats.ace_steals <> model.steals then
      Some
        (Printf.sprintf "ace_steals=%d, model %d" s.Vfm_stats.ace_steals
           model.steals)
    else if s.Vfm_stats.ace_returns <> model.returns then
      Some
        (Printf.sprintf "ace_returns=%d, model %d" s.Vfm_stats.ace_returns
           model.returns)
    else if t.astate.Ace.vcpu_entries <> model.steals then
      Some
        (Printf.sprintf "vcpu_entries=%d, model %d" t.astate.Ace.vcpu_entries
           model.steals)
    else if t.astate.Ace.vm_exits <> model.returns then
      Some
        (Printf.sprintf "vm_exits=%d, model %d" t.astate.Ace.vm_exits
           model.returns)
    else None
  in
  let markers () =
    List.find_map
      (fun c ->
        List.find_map
          (fun p ->
            match Machine.phys_load t.machine (Int64.add p 8L) 8 with
            | Some v when v = marker c.mid -> None
            | v ->
                Some
                  (Printf.sprintf
                     "cvm %d marker at %#Lx clobbered (read %s)" c.mid
                     (Int64.add p 8L)
                     (match v with
                     | Some v -> Printf.sprintf "%#Lx" v
                     | None -> "nothing")))
          (pages_of ~base:c.mbase ~size:c.msize))
      model.live
  in
  match confidential with
  | Some _ as v -> v
  | None -> (
      match medeleg () with
      | Some _ as v -> v
      | None -> ( match counters () with Some _ as v -> v | None -> markers ()))

let exec_ops ~on_outcome t ops =
  let model = model_create () in
  let m = t.machine in
  Array.iteri
    (fun h (hart : Hart.t) ->
      model.cur_a.(h) <- (Hart.get hart 10, Hart.get hart 11))
    m.Machine.harts;
  let div = ref None in
  List.iteri
    (fun i op ->
      if !div = None then begin
        let hart = m.Machine.harts.(op_hart op) in
        let ctx = Monitor.policy_ctx t.mir hart in
        let os_pc = Int64.add os_pc_base (Int64.of_int (8 * i)) in
        (* predict first: staging below must not consult policy state *)
        let was_running = Hashtbl.find_opt model.mrun (op_hart op) in
        let destroy_target =
          match (was_running, op) with
          | None, Destroy { id; _ } ->
              List.find_opt (fun c -> c.mid = id) model.live
          | _ -> None
        in
        let e = predict model op ~os_pc in
        (match op with
        | Interrupt { delta; _ } ->
            (* a real interrupt traps at the CVM's current pc *)
            (match was_running with
            | Some c ->
                Csr_file.write_raw hart.Hart.csr Csr_addr.mepc
                  (cvm_pc c ~delta)
            | None -> Csr_file.write_raw hart.Hart.csr Csr_addr.mepc os_pc);
            ignore
              (t.mir.Monitor.policy.Policy.on_interrupt ctx
                 Cause.Machine_timer)
        | _ ->
            let fid =
              match op with
              | Promote _ -> Ace.fid_promote
              | Run _ -> Ace.fid_run_vcpu
              | Destroy _ -> Ace.fid_destroy
              | _ -> Ace.fid_tsm_info
            in
            let a1, a2 = staged_a12 op in
            Hart.set hart 17 Ace.ext_covh;
            Hart.set hart 16 fid;
            Hart.set hart 10 (staged_a0 op);
            Hart.set hart 11 a1;
            Hart.set hart 12 a2;
            Csr_file.write_raw hart.Hart.csr Csr_addr.mepc os_pc;
            let ms = Csr_file.read_raw hart.Hart.csr Csr_addr.mstatus in
            Csr_file.write_raw hart.Hart.csr Csr_addr.mstatus
              (Ms.set_mpp ms Priv.S);
            ignore (t.mir.Monitor.policy.Policy.on_ecall_from_os ctx));
        (* seed freshly promoted pages with a marker so destroy's scrub
           (and nothing else) is the only way they go blank *)
        (match op with
        | Promote { base; size; _ } when e.cls = cls_ret_ok ->
            List.iter
              (fun p ->
                ignore
                  (Machine.phys_store m (Int64.add p 8L) 8
                     (marker model.next)))
              (pages_of ~base ~size)
        | _ -> ());
        let obs_a = (Hart.get hart 10, Hart.get hart 11) in
        if obs_a <> e.e_a then
          div :=
            mismatch i op
              ~observed:
                (Printf.sprintf "a0=%Ld a1=%Ld" (fst obs_a) (snd obs_a))
              ~expected:
                (Printf.sprintf "a0=%Ld a1=%Ld" (fst e.e_a) (snd e.e_a))
        else begin
          (match e.e_pc with
          | Some pc when hart.Hart.pc <> pc ->
              div :=
                mismatch i op
                  ~observed:(Printf.sprintf "pc=%#Lx" hart.Hart.pc)
                  ~expected:(Printf.sprintf "pc=%#Lx" pc)
          | _ -> ());
          (match e.e_priv with
          | Some p when !div = None && hart.Hart.priv <> p ->
              div :=
                mismatch i op
                  ~observed:
                    (Printf.sprintf "priv=%s" (Priv.to_string hart.Hart.priv))
                  ~expected:(Printf.sprintf "priv=%s" (Priv.to_string p))
          | _ -> ());
          if !div = None then
            match invariant_violation t model with
            | Some reason ->
                div :=
                  mismatch i op ~observed:reason ~expected:"invariant holds"
            | None -> ()
        end;
        (* destroy must leave the region scrubbed, marker included *)
        (match destroy_target with
        | Some c when !div = None && e.cls = cls_ret_ok ->
            List.iter
              (fun p ->
                List.iter
                  (fun off ->
                    let addr = Int64.add p off in
                    match Machine.phys_load m addr 8 with
                    | Some 0L -> ()
                    | v when !div = None ->
                        div :=
                          mismatch i op
                            ~observed:
                              (Printf.sprintf "%#Lx reads %s" addr
                                 (match v with
                                 | Some v -> Printf.sprintf "%#Lx" v
                                 | None -> "nothing"))
                            ~expected:"destroyed region scrubbed to zero"
                    | _ -> ())
                  [ 0L; 8L ])
              (pages_of ~base:c.mbase ~size:c.msize)
        | _ -> ());
        if !div = None then on_outcome i op e.cls
      end)
    ops;
  !div

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let bases =
  [|
    0x8080_0000L;
    0x8080_1000L;
    0x8080_2000L;
    0x8080_4000L;
    0x8081_0000L;
    0x8088_0000L;
  |]

let good_sizes = [| 4096L; 8192L; 16384L |]

let gen_op prng =
  let hart = Prng.int_below prng nharts in
  match Prng.int_below prng 100 with
  | n when n < 8 -> Tsm_info { hart }
  | n when n < 34 ->
      let base = Prng.choose prng bases in
      let size =
        match Prng.int_below prng 8 with
        | 0 -> 2048L (* sub-page *)
        | 1 -> 12288L (* non-power-of-two *)
        | _ -> Prng.choose prng good_sizes
      in
      let base =
        (* sometimes misaligned relative to the size *)
        if Prng.int_below prng 6 = 0 then Int64.add base 1024L else base
      in
      Promote { hart; base; size; entry = base }
  | n when n < 58 -> Run { hart; id = Prng.int_below prng 6 }
  | n when n < 70 ->
      Teecall { hart; value = Int64.of_int (Prng.int_below prng 1000) }
  | n when n < 84 -> Destroy { hart; id = Prng.int_below prng 6 }
  | _ -> Interrupt { hart; delta = Int64.of_int (4 * Prng.int_below prng 64) }

let gen_ops prng =
  let n = 8 + Prng.int_below prng 33 in
  List.init n (fun _ -> gen_op prng)

(* ------------------------------------------------------------------ *)
(* JSONL codec: one op per line under a {"ace":1,"v":1} header        *)
(* ------------------------------------------------------------------ *)

let to_jsonl ops =
  String.concat "\n" ({|{"ace":1,"v":1}|} :: List.map line_of_op ops) ^ "\n"

let ( let* ) = Result.bind

let op_of_fields fields =
  let* name = Event.field fields "op" in
  let* hart = Event.int_field fields "h" in
  let* a0 = Event.i64_field fields "a0" in
  let* a1 = Event.i64_field fields "a1" in
  let* a2 = Event.i64_field fields "a2" in
  if hart < 0 || hart >= nharts then
    Error (Printf.sprintf "hart %d outside [0, %d)" hart nharts)
  else
    match name with
    | "tsm_info" -> Ok (Tsm_info { hart })
    | "promote" -> Ok (Promote { hart; base = a0; size = a1; entry = a2 })
    | "run" -> Ok (Run { hart; id = Int64.to_int a0 })
    | "teecall" -> Ok (Teecall { hart; value = a0 })
    | "destroy" -> Ok (Destroy { hart; id = Int64.to_int a0 })
    | "interrupt" -> Ok (Interrupt { hart; delta = a0 })
    | _ -> Error (Printf.sprintf "unknown ace op %S" name)

(* ------------------------------------------------------------------ *)
(* Built-in conformance vectors                                        *)
(* ------------------------------------------------------------------ *)

let b0 = 0x8080_0000L

let builtin =
  [
    ( "ace-lifecycle",
      [
        Promote { hart = 0; base = b0; size = 4096L; entry = b0 };
        Tsm_info { hart = 1 };
        Run { hart = 0; id = 1 };
        Teecall { hart = 0; value = 42L };
        Destroy { hart = 0; id = 1 };
        Tsm_info { hart = 0 };
      ] );
    ( "ace-overlap",
      [
        Promote { hart = 0; base = b0; size = 8192L; entry = b0 };
        (* adjacent region: fine *)
        Promote { hart = 1; base = 0x8080_2000L; size = 4096L; entry = 0L };
        (* straddles the first region: rejected *)
        Promote { hart = 0; base = 0x8080_1000L; size = 4096L; entry = 0L };
        Destroy { hart = 0; id = 2 };
        (* exact alias of a live region: rejected *)
        Promote { hart = 1; base = b0; size = 4096L; entry = b0 };
        Destroy { hart = 1; id = 1 };
      ] );
    ( "ace-badargs",
      [
        Promote { hart = 0; base = b0; size = 2048L; entry = b0 };
        Promote { hart = 0; base = b0; size = 12288L; entry = b0 };
        Promote { hart = 0; base = 0x8080_1000L; size = 8192L; entry = 0L };
        Promote { hart = 1; base = b0; size = 0L; entry = b0 };
        Tsm_info { hart = 0 };
      ] );
    ( "ace-interrupt-resume",
      [
        Promote { hart = 0; base = b0; size = 4096L; entry = b0 };
        Run { hart = 0; id = 1 };
        Interrupt { hart = 0; delta = 64L };
        Tsm_info { hart = 0 };
        Run { hart = 0; id = 1 };
        Teecall { hart = 0; value = 7L };
        Destroy { hart = 1; id = 1 };
      ] );
    ( "ace-cross-hart",
      [
        Promote { hart = 0; base = b0; size = 4096L; entry = b0 };
        Run { hart = 0; id = 1 };
        (* the vcpu is owned by hart 0: hart 1 cannot steal it *)
        Run { hart = 1; id = 1 };
        Interrupt { hart = 0; delta = 16L };
        (* ownership released: now hart 1 can *)
        Run { hart = 1; id = 1 };
        Teecall { hart = 1; value = 9L };
        Destroy { hart = 0; id = 1 };
      ] );
    ( "ace-destroy-running",
      [
        Promote { hart = 0; base = b0; size = 4096L; entry = b0 };
        Run { hart = 0; id = 1 };
        (* owned by hart 0: destroy must wait for the return *)
        Destroy { hart = 1; id = 1 };
        Interrupt { hart = 0; delta = 0L };
        Destroy { hart = 1; id = 1 };
        Run { hart = 1; id = 1 };
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* The family                                                          *)
(* ------------------------------------------------------------------ *)

module Family = struct
  type case = op list
  type exec = unit
  type line = op

  let name = "ace"
  let header = "ace"

  (* no per-campaign state: every case gets a fresh harness *)
  let create ?inject_bug ~seed:_ () =
    Difftest.no_bugs ~family:name inject_bug ()

  let generator () ~seed =
    let prng = Config.derive seed "acefuzz/gen" in
    fun _ -> gen_ops prng

  (* edge: (op class x outcome class) of each agreeing op *)
  let check () ~edge ops =
    exec_ops
      ~on_outcome:(fun _ op cls -> edge ((op_class op * 8) + cls))
      (harness_create ()) ops
    |> Option.map (fun d ->
           Printf.sprintf "op %d (%s): observed %s, expected %s" d.op_index
             d.op d.observed d.expected)

  let shrink () ops = ops

  let pp fmt ops =
    Format.fprintf fmt "%d ops" (List.length ops);
    List.iter (fun op -> Format.fprintf fmt "@\n  %s" (line_of_op op)) ops

  let builtin = builtin
  let to_jsonl = to_jsonl
  let parse_line = op_of_fields
  let of_lines _ ops = Ok ops
end

include Difftest.Make (Family)
