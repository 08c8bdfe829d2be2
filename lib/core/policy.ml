module Hart = Mir_rv.Hart
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr

type decision = Pass | Handled

type ctx = {
  machine : Mir_rv.Machine.t;
  hart : Hart.t;
  vhart : Vhart.t;
  config : Config.t;
  stats : Vfm_stats.t;
  report_violation : string -> unit;
  reinstall_pmp : unit -> unit;
  reinstall_pmp_all : unit -> unit;
  return_to_os : pc:int64 -> unit;
}

type t = {
  name : string;
  on_ecall_from_os : ctx -> decision;
  on_trap_from_os : ctx -> Mir_rv.Cause.exc -> decision;
  on_switch_to_fw : ctx -> unit;
  on_ecall_from_fw : ctx -> decision;
  on_trap_from_fw : ctx -> Mir_rv.Cause.exc -> decision;
  on_switch_to_os : ctx -> unit;
  on_interrupt : ctx -> Mir_rv.Cause.intr -> decision;
  pmp_entries : ctx -> Mir_rv.Pmp.entry list;
}

let default name =
  {
    name;
    on_ecall_from_os = (fun _ -> Pass);
    on_trap_from_os = (fun _ _ -> Pass);
    on_switch_to_fw = (fun _ -> ());
    on_ecall_from_fw = (fun _ -> Pass);
    on_trap_from_fw = (fun _ _ -> Pass);
    on_switch_to_os = (fun _ -> ());
    on_interrupt = (fun _ _ -> Pass);
    pmp_entries = (fun _ -> []);
  }

let sbi_args ctx = (Hart.get ctx.hart 17, Hart.get ctx.hart 16)

let sbi_return ctx ~err ~value =
  Hart.set ctx.hart 10 err;
  Hart.set ctx.hart 11 value;
  let mepc = Csr_file.read_raw ctx.hart.Hart.csr Csr_addr.mepc in
  ctx.return_to_os ~pc:(Int64.add mepc 4L)
