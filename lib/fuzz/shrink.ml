module Instr = Mir_rv.Instr

(* Divergence minimization: truncate at the diverging op, ddmin-style
   chunk removal, then per-op simplification. Every candidate is
   re-executed; a candidate is kept only if it still diverges, so the
   result is always a genuine failing input. *)

let take n ops = List.filteri (fun i _ -> i < n) ops
let remove_span ops i len = List.filteri (fun j _ -> j < i || j >= i + len) ops
let replace ops i op = List.mapi (fun j o -> if j = i then op else o) ops

let still_fails exec input = input.Input.ops <> [] && Exec.diverges exec input

(* Generic ddmin over a list: remove chunks of decreasing size,
   restarting the scan after every successful removal (classic ddmin
   simplified to a greedy pass). Every candidate is validated by
   [still_fails], so the result is a genuine failing input. The scan
   starts at index [chunk], so the head element is always retained —
   for op streams that is the seed of the divergence window, for the
   schedule explorer it is the initial hart pick. *)
let ddmin ~still_fails items =
  let rec at_size items chunk =
    if chunk = 0 then items
    else
      let rec scan items i =
        let n = List.length items in
        if i >= n then at_size items (chunk / 2)
        else
          let cand = remove_span items i chunk in
          if still_fails cand then scan cand i else scan items (i + chunk)
      in
      scan items chunk
  in
  at_size items (max 1 (List.length items / 2))

let chunk_pass exec input =
  let ops =
    ddmin
      ~still_fails:(fun ops -> still_fails exec { input with Input.ops })
      input.Input.ops
  in
  { input with Input.ops }

(* Candidate simplifications of one op, most aggressive first. *)
let simpler_ops = function
  | Input.Op_instr (Instr.Csr { op; rd; src; csr }) ->
      let cands = ref [] in
      if rd <> 0 then
        cands := Input.Op_instr (Instr.Csr { op; rd = 0; src; csr }) :: !cands;
      (match src with
      | Instr.Imm 0 -> ()
      | _ ->
          cands :=
            Input.Op_instr (Instr.Csr { op; rd; src = Instr.Imm 0; csr })
            :: !cands);
      List.rev !cands
  | Input.Op_instr (Instr.Sfence_vma (rs1, rs2)) ->
      if rs1 <> 0 || rs2 <> 0 then
        [ Input.Op_instr (Instr.Sfence_vma (0, 0)) ]
      else []
  | Input.Op_lines { mtip; msip; meip } ->
      if mtip || msip || meip then
        [ Input.Op_lines { mtip = false; msip = false; meip = false } ]
      else []
  | Input.Op_instr _ -> []

let simplify_pass exec input =
  let rec per_index input i =
    if i >= List.length input.Input.ops then input
    else
      let op = List.nth input.Input.ops i in
      let rec try_cands = function
        | [] -> per_index input (i + 1)
        | cand :: rest ->
            let cand_input =
              { input with Input.ops = replace input.Input.ops i cand }
            in
            if still_fails exec cand_input then per_index cand_input (i + 1)
            else try_cands rest
      in
      try_cands (simpler_ops op)
  in
  per_index input 0

let shrink exec (input : Input.t) =
  match Exec.run exec input with
  | None -> input
  | Some (idx, _) ->
      let truncated = { input with Input.ops = take (idx + 1) input.Input.ops } in
      let start = if still_fails exec truncated then truncated else input in
      simplify_pass exec (chunk_pass exec start)
