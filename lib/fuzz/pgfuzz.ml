(* Paging op class for the differential fuzzer.

   The PR-2 fuzzer checks the VFM emulator against the reference
   machine; this class instead checks the machine against itself — the
   software-TLB configuration against the raw-walker configuration —
   over generated streams of page-table edits, satp switches, fences,
   SUM/MXR/MPRV flips, PMP reconfigurations, and S/U/M memory probes
   (see [Mir_verif.Pgdiff] for the oracle and the fence discipline).

   Generation is deterministic from the root seed via the same
   config-rooted PRNG streams as everything else, and a coarse
   edge map (op class x outcome) tracks behavioural coverage so the
   smoke run can show it actually exercised faults, PMP denials, and
   both address spaces. The campaign, replay and report are
   {!Difftest}'s. *)

module Prng = Mir_util.Prng
module Pgdiff = Mir_verif.Pgdiff
module Priv = Mir_rv.Priv
module Cause = Mir_rv.Cause
module Event = Mir_trace.Event

(* ------------------------------------------------------------------ *)
(* Op-stream generation                                                *)
(* ------------------------------------------------------------------ *)

(* PTE low-bit subsets worth generating: valid RWX/U/A/D combinations,
   plus a few architecturally-invalid ones (W-without-R, non-leaf bits)
   that must fault identically on both sides. *)
let perm_patterns =
  [|
    0xCF (* V R W X A D *);
    0xDF (* + U *);
    0x4B (* V R X A: no D, no W *);
    0x5B (* V R X U A *);
    0x43 (* V R A: read-only *);
    0x53 (* V R U A *);
    0x47 (* V R W A: D clear — first store promotes *);
    0x57 (* V R W U A *);
    0x03 (* V R: A clear — walker sets it *);
    0x07 (* V R W: A/D clear *);
    0x05 (* V W: reserved (W without R) — must fault *);
    0x01 (* V only: non-leaf pointer shape in an L0 slot — fault *);
    0xC9 (* V X A D: execute-only (MXR-sensitive) *);
    0xD9 (* V X U A D: user execute-only *);
  |]

let gen_vpn prng =
  (* mostly the mapped low windows, sometimes unmapped L1 territory *)
  if Prng.int_below prng 8 = 0 then 1024 + Prng.int_below prng 1024
  else Prng.int_below prng 1024

let gen_vaddr prng =
  match Prng.int_below prng 10 with
  | 0 | 1 ->
      (* identity gigapage window: superpage translations; offsets can
         reach the page tables themselves or fall off the end of RAM *)
      Int64.add 0x80000000L
        (Int64.of_int (Prng.int_below prng ((512 * 1024) + 0x2000)))
  | 2 ->
      (* non-canonical Sv39: must page-fault on both sides *)
      Int64.logor 0x4000000000000L
        (Int64.of_int (Prng.int_below prng 0x1000))
  | _ ->
      (* the low 4 MiB paged window, plus unmapped territory above *)
      Int64.of_int
        ((gen_vpn prng lsl 12) lor Prng.int_below prng 0x1000)

let sizes = [| 1; 2; 4; 8 |]

let gen_access prng =
  let kind =
    match Prng.int_below prng 5 with
    | 0 | 1 -> Pgdiff.Aload
    | 2 | 3 -> Pgdiff.Astore
    | _ -> Pgdiff.Afetch
  in
  let size = Prng.choose prng sizes in
  let vaddr = gen_vaddr prng in
  (* align most accesses (misaligned ones trap before translating) *)
  let vaddr =
    if Prng.int_below prng 8 = 0 then vaddr
    else Int64.logand vaddr (Int64.lognot (Int64.of_int (size - 1)))
  in
  Pgdiff.Access { kind; vaddr; size; value = Prng.next prng }

let gen_op prng : Pgdiff.op =
  match Prng.int_below prng 100 with
  | n when n < 45 -> gen_access prng
  | n when n < 62 ->
      Pgdiff.Map
        {
          root = Prng.int_below prng 2;
          vpn = Prng.int_below prng 1024;
          page = Prng.int_below prng Pgdiff.pool_pages;
          perms = Prng.choose prng perm_patterns;
          fence_all = Prng.int_below prng 3 = 0;
        }
  | n when n < 68 ->
      Pgdiff.Unmap
        {
          root = Prng.int_below prng 2;
          vpn = Prng.int_below prng 1024;
          fence_all = Prng.int_below prng 3 = 0;
        }
  | n when n < 76 -> Pgdiff.Satp_switch (Prng.int_below prng 3)
  | n when n < 80 -> Pgdiff.Sum_toggle
  | n when n < 83 -> Pgdiff.Mxr_toggle
  | n when n < 86 -> Pgdiff.Mprv_toggle
  | n when n < 92 ->
      Pgdiff.Priv_set
        (match Prng.int_below prng 5 with
        | 0 -> Priv.U
        | 1 -> Priv.M
        | _ -> Priv.S)
  | n when n < 98 ->
      let npages = 1 lsl Prng.int_below prng 4 in
      Pgdiff.Pmp_set
        {
          slot = Prng.int_below prng 3;
          base_page =
            (let b = Prng.int_below prng (Pgdiff.pool_pages - npages + 1) in
             b land lnot (npages - 1));
          npages;
          perms = 1 + Prng.int_below prng 7 (* at least one of R/W/X *);
        }
  | _ ->
      Pgdiff.Sfence
        {
          vaddr =
            (if Prng.bool prng then None
             else Some (Int64.of_int (gen_vpn prng lsl 12)));
        }

let gen_ops prng =
  let n = 8 + Prng.int_below prng 33 in
  List.init n (fun _ -> gen_op prng)

(* ------------------------------------------------------------------ *)
(* Coverage: op class x outcome class                                  *)
(* ------------------------------------------------------------------ *)

let op_class : Pgdiff.op -> int = function
  | Pgdiff.Access { kind = Pgdiff.Aload; _ } -> 0
  | Pgdiff.Access { kind = Pgdiff.Astore; _ } -> 1
  | Pgdiff.Access { kind = Pgdiff.Afetch; _ } -> 2
  | Pgdiff.Map _ -> 3
  | Pgdiff.Unmap _ -> 4
  | Pgdiff.Sfence _ -> 5
  | Pgdiff.Satp_switch _ -> 6
  | Pgdiff.Sum_toggle -> 7
  | Pgdiff.Mxr_toggle -> 8
  | Pgdiff.Mprv_toggle -> 9
  | Pgdiff.Priv_set _ -> 10
  | Pgdiff.Pmp_set _ -> 11

let outcome_class : Pgdiff.outcome -> int = function
  | Pgdiff.Nothing -> 0
  | Pgdiff.Stored -> 1
  | Pgdiff.Value _ -> 2
  | Pgdiff.Fault e -> 3 + Cause.exc_code e

(* ------------------------------------------------------------------ *)
(* JSONL codec: one op per line under a {"pgdiff":1} header           *)
(* ------------------------------------------------------------------ *)

let kinds =
  [ ("load", Pgdiff.Aload); ("store", Pgdiff.Astore); ("fetch", Pgdiff.Afetch) ]

let line_of_op : Pgdiff.op -> string = function
  | Pgdiff.Map { root; vpn; page; perms; fence_all } ->
      Printf.sprintf
        {|{"op":"map","root":%d,"vpn":%d,"page":%d,"perms":%d,"all":%b}|}
        root vpn page perms fence_all
  | Pgdiff.Unmap { root; vpn; fence_all } ->
      Printf.sprintf {|{"op":"unmap","root":%d,"vpn":%d,"all":%b}|} root vpn
        fence_all
  | Pgdiff.Sfence { vaddr = None } -> {|{"op":"sfence"}|}
  | Pgdiff.Sfence { vaddr = Some va } ->
      Printf.sprintf {|{"op":"sfence","va":"0x%Lx"}|} va
  | Pgdiff.Satp_switch n -> Printf.sprintf {|{"op":"satp","root":%d}|} n
  | Pgdiff.Sum_toggle -> {|{"op":"sum"}|}
  | Pgdiff.Mxr_toggle -> {|{"op":"mxr"}|}
  | Pgdiff.Mprv_toggle -> {|{"op":"mprv"}|}
  | Pgdiff.Priv_set p ->
      Printf.sprintf {|{"op":"priv","priv":%d}|} (Priv.to_int p)
  | Pgdiff.Pmp_set { slot; base_page; npages; perms } ->
      Printf.sprintf {|{"op":"pmp","slot":%d,"page":%d,"pages":%d,"perms":%d}|}
        slot base_page npages perms
  | Pgdiff.Access { kind; vaddr; size; value } ->
      Printf.sprintf {|{"op":"%s","va":"0x%Lx","size":%d,"value":"0x%Lx"}|}
        (fst (List.find (fun (_, k) -> k = kind) kinds))
        vaddr size value

let ( let* ) = Result.bind

(* The oracle indexes page tables, the data pool and PMP slots with
   these fields, so out-of-range values are rejected, not replayed. *)
let op_of_fields fields : (Pgdiff.op, string) result =
  let int key lo hi =
    let* v = Event.int_field fields key in
    if v >= lo && v <= hi then Ok v
    else Error (Printf.sprintf "field %S: %d outside [%d, %d]" key v lo hi)
  in
  let all () = Event.bool_field fields "all" in
  let* op = Event.field fields "op" in
  match (op, List.assoc_opt op kinds) with
  | _, Some kind ->
      let* vaddr = Event.i64_field fields "va" in
      let* size = Event.int_field fields "size" in
      let* value = Event.i64_field fields "value" in
      if Array.mem size sizes then
        Ok (Pgdiff.Access { kind; vaddr; size; value })
      else Error (Printf.sprintf "access size %d is not 1, 2, 4 or 8" size)
  | "map", _ ->
      let* root = int "root" 0 1 in
      let* vpn = int "vpn" 0 1023 in
      let* page = int "page" 0 (Pgdiff.pool_pages - 1) in
      let* perms = int "perms" 0 0xFF in
      let* fence_all = all () in
      Ok (Pgdiff.Map { root; vpn; page; perms; fence_all })
  | "unmap", _ ->
      let* root = int "root" 0 1 in
      let* vpn = int "vpn" 0 1023 in
      let* fence_all = all () in
      Ok (Pgdiff.Unmap { root; vpn; fence_all })
  | "sfence", _ when List.mem_assoc "va" fields ->
      let* va = Event.i64_field fields "va" in
      Ok (Pgdiff.Sfence { vaddr = Some va })
  | "sfence", _ -> Ok (Pgdiff.Sfence { vaddr = None })
  | "satp", _ ->
      let* n = int "root" 0 2 in
      Ok (Pgdiff.Satp_switch n)
  | "sum", _ -> Ok Pgdiff.Sum_toggle
  | "mxr", _ -> Ok Pgdiff.Mxr_toggle
  | "mprv", _ -> Ok Pgdiff.Mprv_toggle
  | "priv", _ -> (
      let* p = Event.int_field fields "priv" in
      match Priv.of_int p with
      | Some p -> Ok (Pgdiff.Priv_set p)
      | None -> Error (Printf.sprintf "bad privilege %d" p))
  | "pmp", _ ->
      let* slot = int "slot" 0 2 in
      let* npages = int "pages" 1 Pgdiff.pool_pages in
      let* base_page = int "page" 0 (Pgdiff.pool_pages - npages) in
      let* perms = int "perms" 1 7 in
      if npages land (npages - 1) <> 0 || base_page land (npages - 1) <> 0
      then Error "pmp region must be a naturally aligned power of two"
      else Ok (Pgdiff.Pmp_set { slot; base_page; npages; perms })
  | other, None -> Error (Printf.sprintf "unknown paging op %S" other)

(* ------------------------------------------------------------------ *)
(* The family                                                          *)
(* ------------------------------------------------------------------ *)

module Family = struct
  type case = Pgdiff.op list
  type exec = Pgdiff.pair
  type line = Pgdiff.op

  let name = "paging"
  let header = "pgdiff"

  (* one machine pair per campaign; [run_ops] resets it per stream *)
  let create ?inject_bug ~seed:_ () =
    Difftest.no_bugs ~family:name inject_bug (Pgdiff.create_pair ())

  let generator _ ~seed =
    let prng = Miralis.Config.derive seed "pgfuzz/gen" in
    fun _ -> gen_ops prng

  let check pair ~edge ops =
    Pgdiff.run_ops pair
      ~on_outcome:(fun _ op out ->
        edge ((op_class op * 32) + outcome_class out))
      ops
    |> Option.map (fun (d : Pgdiff.divergence) ->
           Printf.sprintf "op %d %s: tlb %s, walker %s" d.Pgdiff.op_index
             (match d.Pgdiff.op with
             | Some op -> line_of_op op
             | None -> "(final RAM hash)")
             d.Pgdiff.tlb_outcome d.Pgdiff.walker_outcome)

  let shrink _ ops = ops

  let pp fmt ops =
    Format.fprintf fmt "%d ops" (List.length ops);
    List.iter (fun op -> Format.fprintf fmt "@\n  %s" (line_of_op op)) ops

  let builtin = []
  let to_jsonl ops =
    String.concat "\n" ({|{"pgdiff":1}|} :: List.map line_of_op ops) ^ "\n"
  let parse_line = op_of_fields
  let of_lines _ ops = Ok ops
end

include Difftest.Make (Family)
