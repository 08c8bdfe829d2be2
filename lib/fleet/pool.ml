(* A domain pool for fleets of independent machines.

   Tasks are integers [0, tasks); each runs exactly once. Every worker
   claims the next unclaimed task id from one shared atomic counter, so
   a long straggler never strands queued work behind it. Which domain
   runs a task affects only wall-clock time: the caller's task function
   writes its result into a slot owned by the task id, so fleet results
   are independent of the claiming order. *)

let run ~domains ~tasks f =
  if domains < 1 then invalid_arg "Pool.run: domains < 1";
  if tasks < 0 then invalid_arg "Pool.run: tasks < 0";
  if domains = 1 || tasks <= 1 then
    for i = 0 to tasks - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    (* The first failure wins; the remaining ids are still claimed (and
       skipped) so every domain joins cleanly before the exception
       resurfaces. *)
    let failure = Atomic.make None in
    let rec worker () =
      let t = Atomic.fetch_and_add next 1 in
      if t < tasks then begin
        (if Atomic.get failure = None then
           try f t
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        worker ()
      end
    in
    let spawned =
      Array.init (min domains tasks - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join spawned;
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let default_domains () = max 1 (Domain.recommended_domain_count ())
