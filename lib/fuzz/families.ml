(* Every differential-testing family, in report order. *)

let all : Difftest.family list =
  [ (module Fuzzer); (module Pgfuzz); (module Blockfuzz); (module Acefuzz) ]

let find name =
  List.find_opt (fun (module D : Difftest.S) -> D.name = name) all
