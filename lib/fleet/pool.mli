(** Domain pool (OCaml 5 [Domain]).

    Runs integer tasks [0, tasks) across a fixed set of domains: each
    worker claims the next task id from one shared atomic counter. Each
    task runs exactly once; which domain runs it is
    scheduling-dependent, so the task function must write only to state
    owned by the task id (the fleet layer stores results in a per-task
    slot, keeping fleet output independent of domain count and claiming
    order). *)

val run : domains:int -> tasks:int -> (int -> unit) -> unit
(** [run ~domains ~tasks f] executes [f 0 .. f (tasks-1)], each
    exactly once, on at most [domains] domains (the calling domain
    participates; [domains = 1] degenerates to a plain serial loop).
    If a task raises, the remaining tasks are skipped, every domain is
    joined, and the first exception is re-raised with its backtrace.
    Requires [domains >= 1]. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)
