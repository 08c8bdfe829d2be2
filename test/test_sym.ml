(* Symbolic-engine tests.

   Domain soundness: for every functorized transform, a random
   concrete state must be contained in the concretization of the
   symbolic result — running the transform at the symbolic backend
   under a total concolic assignment and evaluating the result word
   must equal running the same transform at the concrete [int64]
   instantiation on the corresponding values. Seeded quickcheck-style
   sampling, no external generators.

   Plus sanity checks of the expression layer's equivalence verdicts
   and of the path explorer. *)

module Prng = Mir_util.Prng
module B = Mir_sym.Backend
module W = Mir_sym.Word
module E = Mir_sym.Expr
module Eng = Mir_sym.Engine
module Csr_spec = Mir_rv.Csr_spec
module Csr_addr = Mir_rv.Csr_addr
module Priv = Mir_rv.Priv
module Instr = Mir_rv.Instr
module Xs = Mir_rv.Hart.Xfer (B)
module Xc = Mir_rv.Hart.Xfer_c
module CSs = Csr_spec.Sem (B)
module ESs = Miralis.Emulator.Sem (B)
module ESc = Miralis.Emulator.Sem (Mir_util.Bits_sig.I64)

let samples = 200
let prng = Prng.create ~seed:0x53594D31L (* "SYM1" *)

(* Run [sym] (a function over fresh symbolic words) concolically under
   the concrete input values and check its 64-bit result against
   [conc] applied to the same values. *)
let check_word_transform name inputs conc sym =
  for i = 1 to samples do
    Eng.reset ();
    let values = List.map (fun n -> (n, Prng.next prng)) inputs in
    let words = List.map (fun (n, _) -> Eng.fresh_word n) values in
    let env = Eng.env_of_inputs values in
    let got = Eng.concolic env (fun () -> W.eval env (sym words)) in
    let expected = conc (List.map snd values) in
    if got <> expected then
      Alcotest.failf "%s sample %d: concrete 0x%Lx, symbolic 0x%Lx" name i
        expected got
  done

let vcfg =
  (Miralis.Config.make
     ~machine:
       {
         Mir_rv.Machine.default_config with
         Mir_rv.Machine.ram_size = 64 * 1024;
         nharts = 1;
       }
     ())
    .Miralis.Config.vcsr_config

let spec_of addr = Option.get (Csr_spec.find vcfg addr)

let test_legalize_rules () =
  let rules =
    [
      ("epc", Csr_spec.R_epc);
      ("tvec", Csr_spec.R_tvec);
      ("satp", Csr_spec.R_satp);
      ("mstatus", Csr_spec.R_mstatus);
      ("pmpcfg", Csr_spec.R_pmpcfg 3);
      ("force_or", Csr_spec.R_force_or Csr_spec.Irq.s_mask);
      ("id", Csr_spec.R_id);
    ]
  in
  List.iter
    (fun (name, rule) ->
      check_word_transform
        ("legalize " ^ name)
        [ "old"; "value" ]
        (function
          | [ old; value ] -> Csr_spec.C.legalize rule ~old ~value
          | _ -> assert false)
        (function
          | [ old; value ] -> CSs.legalize rule ~old ~value
          | _ -> assert false))
    rules

let test_apply_write_read () =
  List.iter
    (fun addr ->
      let s = spec_of addr in
      check_word_transform
        ("apply_write " ^ s.Csr_spec.name)
        [ "old"; "value" ]
        (function
          | [ old; value ] ->
              Csr_spec.C.apply_read s (Csr_spec.C.apply_write s ~old ~value)
          | _ -> assert false)
        (function
          | [ old; value ] ->
              CSs.apply_read s (CSs.apply_write s ~old ~value)
          | _ -> assert false))
    [
      Csr_addr.mstatus;
      Csr_addr.mtvec;
      Csr_addr.mepc;
      Csr_addr.satp;
      Csr_addr.mideleg;
      Csr_addr.mie;
      Csr_addr.pmpcfg 0;
      Csr_addr.pmpaddr 0;
    ]

let test_views () =
  let pair name conc sym =
    check_word_transform name [ "a"; "b" ]
      (function [ a; b ] -> conc a b | _ -> assert false)
      (function [ a; b ] -> sym a b | _ -> assert false)
  in
  pair "sstatus_write"
    (fun mstatus value -> Csr_spec.C.sstatus_write ~mstatus ~value)
    (fun mstatus value -> CSs.sstatus_write ~mstatus ~value);
  pair "sie_read"
    (fun mie mideleg -> Csr_spec.C.sie_read ~mie ~mideleg)
    (fun mie mideleg -> CSs.sie_read ~mie ~mideleg);
  pair "sip_read"
    (fun mip mideleg -> Csr_spec.C.sip_read ~mip ~mideleg)
    (fun mip mideleg -> CSs.sip_read ~mip ~mideleg)

let test_xfer_transforms () =
  let one name conc sym =
    check_word_transform name [ "mstatus" ]
      (function [ m ] -> conc m | _ -> assert false)
      (function [ m ] -> sym m | _ -> assert false)
  in
  one "trap_entry_m"
    (fun m -> Xc.trap_entry_m ~mstatus:m ~from_priv:Priv.S)
    (fun m -> Xs.trap_entry_m ~mstatus:m ~from_priv:Priv.S);
  one "trap_entry_s"
    (fun m -> Xc.trap_entry_s ~mstatus:m ~from_priv:Priv.U)
    (fun m -> Xs.trap_entry_s ~mstatus:m ~from_priv:Priv.U);
  one "mret_mstatus"
    (fun m -> Xc.mret_mstatus m)
    (fun m -> Xs.mret_mstatus m);
  one "mret_mstatus skip_mpie"
    (Xc.mret_mstatus ~skip_mpie:true)
    (Xs.mret_mstatus ~skip_mpie:true);
  one "sret_mstatus" Xc.sret_mstatus Xs.sret_mstatus;
  List.iter
    (fun op ->
      check_word_transform "csr_rmw" [ "old"; "src" ]
        (function
          | [ old; src ] -> Xc.csr_rmw op ~old ~src | _ -> assert false)
        (function
          | [ old; src ] -> Xs.csr_rmw op ~old ~src | _ -> assert false))
    [ Instr.Csrrw; Instr.Csrrs; Instr.Csrrc ]

(* Decisions (target privileges, interrupt selection) return concrete
   values even symbolically: compare them directly under concolic
   evaluation. *)
let test_decisions () =
  for _ = 1 to samples do
    Eng.reset ();
    let values =
      List.map
        (fun n -> (n, Prng.next prng))
        [ "mstatus"; "mip"; "mie"; "mideleg" ]
    in
    let words = List.map (fun (n, _) -> Eng.fresh_word n) values in
    let m, mip, mie, mideleg =
      match words with
      | [ a; b; c; d ] -> (a, b, c, d)
      | _ -> assert false
    in
    let mc, mipc, miec, midelegc =
      match List.map snd values with
      | [ a; b; c; d ] -> (a, b, c, d)
      | _ -> assert false
    in
    let env = Eng.env_of_inputs values in
    Eng.concolic env (fun () ->
        Alcotest.(check bool)
          "mret_target_priv" true
          (Xs.mret_target_priv m = Xc.mret_target_priv mc);
        Alcotest.(check bool)
          "sret_target_priv" true
          (Xs.sret_target_priv m = Xc.sret_target_priv mc);
        List.iter
          (fun priv ->
            Alcotest.(check bool)
              "pending_interrupt" true
              (Xs.pending_interrupt ~priv ~mstatus:m ~mip ~mie ~mideleg
              = Xc.pending_interrupt ~priv ~mstatus:mc ~mip:mipc ~mie:miec
                  ~mideleg:midelegc))
          [ Priv.M; Priv.S; Priv.U ];
        List.iter
          (fun world ->
            let order = Mir_rv.Cause.priority in
            Alcotest.(check bool)
              "virtual_interrupt" true
              (ESs.virtual_interrupt ~order ~world ~mstatus:m ~mip ~mie
                 ~mideleg
              = ESc.virtual_interrupt ~order ~world ~mstatus:mc ~mip:mipc
                  ~mie:miec ~mideleg:midelegc))
          [ Miralis.Vhart.Firmware; Miralis.Vhart.Os ])
  done

(* ------------------------------------------------------------------ *)
(* Expression-layer sanity                                             *)
(* ------------------------------------------------------------------ *)

let no_env _ = None

let test_expr_equiv () =
  let a = E.Var 0 and b = E.Var 1 in
  (match E.equiv no_env (E.and_ a b) (E.and_ b a) with
  | E.Proved -> ()
  | _ -> Alcotest.fail "a&b = b&a should prove");
  (match E.equiv no_env (E.not_ (E.and_ a b)) (E.or_ (E.not_ a) (E.not_ b))
   with
  | E.Proved -> ()
  | _ -> Alcotest.fail "De Morgan should prove");
  (match E.equiv no_env a (E.not_ a) with
  | E.Refuted _ -> ()
  | _ -> Alcotest.fail "a = !a should refute");
  (match E.equiv no_env (E.or_ a b) (E.and_ a b) with
  | E.Refuted asg ->
      (* the refutation must actually falsify the equivalence *)
      let env v = Some (List.assoc_opt v asg = Some true) |> Option.get in
      Alcotest.(check bool)
        "refutation falsifies" true
        (E.eval env (E.or_ a b) <> E.eval env (E.and_ a b))
  | _ -> Alcotest.fail "a|b = a&b should refute")

let test_explore () =
  Eng.reset ();
  let w = Eng.fresh_word "w" in
  (* two genuine splits: four leaves, all depth 2 *)
  let ex =
    Eng.explore (fun () ->
        let a = B.decide (B.test w 0) and b = B.decide (B.test w 1) in
        (a, b))
  in
  Alcotest.(check int) "paths" 4 ex.Eng.paths;
  Alcotest.(check int) "unexplored" 0 ex.Eng.unexplored;
  Alcotest.(check int) "depth hist" 4 ex.Eng.depth_hist.(2);
  Alcotest.(check bool)
    "all outcomes reached" true
    (List.sort compare (List.map (fun l -> l.Eng.value) ex.Eng.leaves)
    = [ (false, false); (false, true); (true, false); (true, true) ])

let test_explore_depth_bound () =
  Eng.reset ();
  let w = Eng.fresh_word "w" in
  let ex =
    Eng.explore ~max_depth:3 (fun () ->
        let n = ref 0 in
        for i = 0 to 7 do
          if B.decide (B.test w i) then incr n
        done;
        !n)
  in
  Alcotest.(check int) "no full paths" 0 ex.Eng.paths;
  Alcotest.(check bool) "cut paths counted" true (ex.Eng.unexplored > 0)

let () =
  Alcotest.run "sym"
    [
      ( "domain-soundness",
        [
          Alcotest.test_case "legalize rules" `Quick test_legalize_rules;
          Alcotest.test_case "apply_write/read" `Quick test_apply_write_read;
          Alcotest.test_case "views" `Quick test_views;
          Alcotest.test_case "xfer transforms" `Quick test_xfer_transforms;
          Alcotest.test_case "decisions" `Quick test_decisions;
        ] );
      ( "engine",
        [
          Alcotest.test_case "expr equiv" `Quick test_expr_equiv;
          Alcotest.test_case "explore" `Quick test_explore;
          Alcotest.test_case "depth bound" `Quick test_explore_depth_bound;
        ] );
    ]
