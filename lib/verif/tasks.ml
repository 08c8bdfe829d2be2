module Prng = Mir_util.Prng
module Instr = Mir_rv.Instr

type method_ = Symbolic | Sampled

type report = {
  name : string;
  method_ : method_;
  cases : int;
  skipped : int;
  mismatches : int;
  first_counterexample : string option;
  seconds : float;
}

let passed r = r.mismatches = 0 && (r.method_ = Sampled || r.skipped = 0)

let method_label r =
  match r.method_ with
  | Sampled -> "sampled"
  | Symbolic -> if passed r then "proved" else "UNPROVED"

let pp_report fmt r =
  let cases, skipped =
    match r.method_ with
    | Symbolic -> ("paths", "unexplored")
    | Sampled -> ("cases", "skipped")
  in
  Format.fprintf fmt "%-22s %-8s %8d %s %6d %-10s %4d mismatches %8.2fs%s"
    r.name (method_label r) r.cases cases r.skipped skipped r.mismatches
    r.seconds
    (match r.first_counterexample with
    | Some c -> "\n    first: " ^ c
    | None -> "")

(* A sampled row: [f] returns (cases, skipped, mismatches, first). *)
let sampled name f =
  let t0 = Sys.time () in
  let cases, skipped, mismatches, first = f () in
  {
    name;
    method_ = Sampled;
    cases;
    skipped;
    mismatches;
    first_counterexample = first;
    seconds = Sys.time () -. t0;
  }

let proved name (p : Prove.report) =
  {
    name;
    method_ = Symbolic;
    cases = p.Prove.paths;
    skipped = p.Prove.unexplored;
    mismatches = p.Prove.mismatches;
    first_counterexample = p.Prove.first_counterexample;
    seconds = p.Prove.seconds;
  }

(* Run [instrs] against [samples] fresh state samples each; every case
   is a one-step stream of the isa fuzz family's engine. *)
let sweep ?inject_bug ?seed ~name ~samples instrs =
  sampled name (fun () ->
      let d = Diff.create ?inject_bug ?seed () in
      (* one deterministic stream per task, split off the config seed *)
      let prng = Miralis.Config.prng (Diff.config d) ("verif:" ^ name) in
      let cases = ref 0 and skipped = ref 0 and bad = ref 0 in
      let first = ref None in
      for _ = 1 to samples do
        let sample = Diff.gen_sample d prng in
        List.iter
          (fun instr ->
            incr cases;
            Diff.stream_begin d sample;
            match (Diff.stream_step d instr).Diff.verdict with
            | Diff.Agree -> ()
            | Diff.Skip -> incr skipped
            | Diff.Disagree msg ->
                incr bad;
                if !first = None then first := Some msg)
          instrs
      done;
      (!cases, !skipped, !bad, !first))

let wfi ~samples ?inject_bug ?seed () =
  sweep ?inject_bug ?seed ~name:"wfi instruction" ~samples
    [ Instr.Wfi; Instr.Sfence_vma (0, 0); Instr.Ecall; Instr.Ebreak ]

let decoder ~words ?seed () =
  sampled "instruction decoder" (fun () ->
      let prng =
        Miralis.Config.derive
          (Option.value seed ~default:Miralis.Config.default_seed)
          "verif:decoder"
      in
      let cases = ref 0 and bad = ref 0 in
      let first = ref None in
      let note ok msg =
        incr cases;
        if not ok then begin
          incr bad;
          if !first = None then first := Some (msg ())
        end
      in
      (* Exhaustive round-trip over the privileged encoding space:
         every CSR address x op x representative registers. *)
      List.iter
        (fun csr ->
          List.iter
            (fun op ->
              List.iter
                (fun (rd, r) ->
                  List.iter
                    (fun use_imm ->
                      let src =
                        if use_imm then Instr.Imm r else Instr.Reg r
                      in
                      let i = Instr.Csr { op; rd; src; csr } in
                      let ok =
                        Mir_rv.Decode.decode (Mir_rv.Encode.encode i)
                        = Some i
                      in
                      note ok (fun () ->
                          "roundtrip failed: " ^ Instr.to_string i))
                    [ false; true ])
                [ (0, 0); (1, 31); (31, 1); (17, 17) ])
            [ Instr.Csrrw; Instr.Csrrs; Instr.Csrrc ])
        (List.init 4096 Fun.id);
      (* The SYSTEM privileged encodings. *)
      List.iter
        (fun i ->
          let ok = Mir_rv.Decode.decode (Mir_rv.Encode.encode i) = Some i in
          note ok (fun () -> "roundtrip failed: " ^ Instr.to_string i))
        ([ Instr.Mret; Instr.Sret; Instr.Wfi; Instr.Ecall; Instr.Ebreak ]
        @ List.concat_map
            (fun a -> [ Instr.Sfence_vma (a, 0); Instr.Sfence_vma (a, a) ])
            [ 0; 1; 15; 31 ]);
      (* Totality: decode never raises on random words. *)
      for _ = 1 to words do
        let w = Int64.to_int (Int64.logand (Prng.next prng) 0xFFFFFFFFL) in
        let ok =
          match Mir_rv.Decode.decode w with
          | Some _ | None -> true
          | exception _ -> false
        in
        note ok (fun () -> Printf.sprintf "decode raised on %08x" w)
      done;
      (!cases, 0, !bad, !first))

(* The four read forms, then the seven write forms, of one CSR. *)
let csr_forms csr =
  List.map
    (fun (op, rd, src) -> Instr.Csr { op; rd; src; csr })
    Instr.
      [
        (Csrrs, 11, Reg 0); (Csrrc, 12, Reg 0); (Csrrs, 13, Imm 0);
        (Csrrc, 0, Imm 0); (Csrrw, 11, Reg 5); (Csrrw, 0, Reg 6);
        (Csrrs, 12, Reg 7); (Csrrc, 13, Reg 28); (Csrrw, 14, Imm 31);
        (Csrrs, 15, Imm 21); (Csrrc, 5, Imm 9);
      ]

(* The prover mirrors the CSR dispatch ([Prove.ref_csr]/[emu_csr]);
   this row samples the real one at every 12-bit CSR address, so
   implemented CSRs must match bit for bit and unimplemented ones must
   fault identically on both sides. *)
let end_to_end ~samples ?inject_bug ?seed () =
  sweep ?inject_bug ?seed ~name:"end-to-end emulation" ~samples
    (List.concat_map csr_forms (List.init 4096 Fun.id)
    @ [ Instr.Mret; Instr.Sret; Instr.Wfi; Instr.Sfence_vma (5, 6);
        Instr.Ecall; Instr.Ebreak ])

let all ?(quick = false) ?inject_bug ?seed () =
  let s n = if quick then max 1 (n / 10) else n in
  [
    proved "mret instruction" (Prove.mret ~quick ?inject_bug ());
    proved "sret instruction" (Prove.sret ~quick ?inject_bug ());
    wfi ~samples:(s 3000) ?inject_bug ?seed ();
    decoder ~words:(s 400_000) ?seed ();
    proved "CSR read" (Prove.csr_read ~quick ?inject_bug ());
    proved "CSR write" (Prove.csr_write ~quick ?inject_bug ());
    proved "virtual interrupt"
      (Prove.virtual_interrupt ~quick ?inject_bug ());
    end_to_end ~samples:(s 25) ?inject_bug ?seed ();
    sampled "PMP faithful execution" (fun () ->
        Faithful_execution.run ~configs:(s 400) ?inject_bug ?seed ());
  ]
