module T = Exp_tables
module F = Exp_figs

let all =
  [
    ("table1", fun () -> T.table1 ());
    ("table2", fun () -> T.table2 ());
    ("table3", fun () -> T.table3 ());
    ("table4", fun () -> T.table4 ());
    ("table5", fun () -> T.table5 ());
    ("fig3", fun () -> F.fig3 ());
    ("fig10", fun () -> F.fig10 ());
    ("fig11", fun () -> F.fig11 ());
    ("fig12", fun () -> F.fig12 ());
    ("fig13", fun () -> F.fig13 ());
    ("fig14", fun () -> F.fig14 ());
    ("boottime", fun () -> F.boot_time ());
    ("sstc", fun () -> F.sstc_projection ());
    ("q1", fun () -> F.q1 ());
    ("q4", fun () -> F.q4 ());
  ]

let select table = function
  | [] -> Ok (List.map snd table)
  | names -> (
      match List.find_opt (fun n -> not (List.mem_assoc n table)) names with
      | Some n ->
          Error
            (Printf.sprintf "unknown experiment %S (known: %s)" n
               (String.concat " " (List.map fst table)))
      | None -> Ok (List.map (fun n -> List.assoc n table) names))
