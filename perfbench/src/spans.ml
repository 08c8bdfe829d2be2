(* In-memory span recorder for the traced run.

   Every span has a name, a start, an end, a parent and the id of the
   op it belongs to. Per-name aggregates (calls, inclusive time, self
   time) cover every span; the raw log keeps the first [capacity]
   spans in preallocated arrays so recording never allocates and
   memory stays bounded, and is written out once at exit. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let max_depth = 64
let capacity = 50_000

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable calls : int array;
  mutable total_ns : int array;
  mutable self_ns : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;  (** time covered by the open span's children *)
  st_slot : int array;  (** log slot of the open span, -1 if unlogged *)
  mutable depth : int;
  origin : int;
  l_name : int array;
  l_start : int array;
  l_stop : int array;
  l_parent : int array;
  l_op : int array;
  mutable logged : int;
  mutable dropped : int;
  mutable op : int;
}

let create () =
  {
    ids = Hashtbl.create 64;
    names = [||];
    calls = [||];
    total_ns = [||];
    self_ns = [||];
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_slot = Array.make max_depth (-1);
    depth = 0;
    origin = now ();
    l_name = Array.make capacity 0;
    l_start = Array.make capacity 0;
    l_stop = Array.make capacity 0;
    l_parent = Array.make capacity (-1);
    l_op = Array.make capacity 0;
    logged = 0;
    dropped = 0;
    op = -1;
  }

let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      Hashtbl.add t.ids name i;
      t.names <- Array.append t.names [| name |];
      t.calls <- Array.append t.calls [| 0 |];
      t.total_ns <- Array.append t.total_ns [| 0 |];
      t.self_ns <- Array.append t.self_ns [| 0 |];
      i

let set_op t op = t.op <- op

let enter t id =
  let d = t.depth in
  let slot =
    if t.logged < Array.length t.l_name then begin
      let s = t.logged in
      t.logged <- s + 1;
      t.l_name.(s) <- id;
      t.l_parent.(s) <- (if d > 0 then t.st_slot.(d - 1) else -1);
      t.l_op.(s) <- t.op;
      s
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.st_id.(d) <- id;
  t.st_child.(d) <- 0;
  t.st_slot.(d) <- slot;
  t.depth <- d + 1;
  let start = now () in
  t.st_start.(d) <- start;
  if slot >= 0 then t.l_start.(slot) <- start

let leave t =
  let stop = now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.st_id.(d) in
  let dur = stop - t.st_start.(d) in
  t.calls.(id) <- t.calls.(id) + 1;
  t.total_ns.(id) <- t.total_ns.(id) + dur;
  t.self_ns.(id) <- t.self_ns.(id) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let slot = t.st_slot.(d) in
  if slot >= 0 then t.l_stop.(slot) <- stop

let span t id f =
  enter t id;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let find t name = Hashtbl.find_opt t.ids name
let get arr t name = match find t name with Some i -> arr.(i) | None -> 0
let calls t name = get t.calls t name
let ms_of_ns ns = float_of_int ns /. 1e6
let total_ms t name = ms_of_ns (get t.total_ns t name)
let self_ms t name = ms_of_ns (get t.self_ns t name)
let logged t = t.logged
let dropped t = t.dropped

let write t ~path =
  let oc = open_out path in
  for s = 0 to t.logged - 1 do
    Printf.fprintf oc
      "{\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
      t.names.(t.l_name.(s))
      (t.l_start.(s) - t.origin)
      (t.l_stop.(s) - t.origin)
      t.l_parent.(s) t.l_op.(s)
  done;
  close_out oc
