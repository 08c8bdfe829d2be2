module Prng = Mir_util.Prng
module Bits = Mir_util.Bits
module Machine = Mir_rv.Machine
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Pmp = Mir_rv.Pmp
module Priv = Mir_rv.Priv
module Vhart = Miralis.Vhart
module Vpmp = Miralis.Vpmp
module Config = Miralis.Config

(* Does the 8-byte access at [addr] touch [base, base+size)? *)
let in_range base size addr =
  let last = Int64.add addr 7L in
  Bits.ule base last && Bits.ult addr (Int64.add base size)

(* Probe addresses: the boundaries of every virtual region, the
   carve-outs, and random addresses. *)
let probe_addresses prng config ventries =
  let boundary (lo, hi) =
    [ lo; Int64.add lo 8L; Int64.sub lo 8L; hi; Int64.sub hi 8L;
      Int64.add hi 8L ]
  in
  let regions =
    Array.to_list ventries
    |> List.mapi (fun i (_ : Pmp.entry) ->
           let prev =
             if i = 0 then 0L else ventries.(i - 1).Pmp.addr
           in
           Pmp.range ~prev_addr:prev ventries.(i))
    |> List.filter_map Fun.id
  in
  let carveouts =
    [
      config.Config.miralis_base;
      Int64.add config.Config.miralis_base 0x100L;
      Vpmp.vdev_base;
      Int64.add Vpmp.vdev_base 0x8L;
    ]
  in
  let random =
    List.init 24 (fun _ ->
        Bits.align_down
          (Int64.logand (Prng.next prng) 0xFFFFFFFFL)
          ~size:8)
  in
  List.concat_map boundary regions @ carveouts @ random
  |> List.filter (fun a -> a >= 0L)

let run ?(configs = 400) ?inject_bug ?seed () =
  let host =
    { Machine.default_config with Machine.ram_size = 64 * 1024 }
  in
  let config = Config.make ?inject_bug ?seed ~machine:host () in
  let machine = Machine.create host in
  let hart = machine.Machine.harts.(0) in
  let vh = Vhart.create config ~id:0 in
  let prng = Config.prng config "verif:faithful-execution" in
  let cases = ref 0 and bad = ref 0 in
  let first = ref None in
  let vcfg = config.Config.vcsr_config in
  let nv = vcfg.Mir_rv.Csr_spec.pmp_count in
  for _ = 1 to configs do
    (* Sample a virtual PMP configuration through the
       architectural write path (locks and WARL included). *)
    for i = 0 to nv - 1 do
      Csr_file.write vh.Vhart.csr (Csr_addr.pmpaddr i)
        (Int64.shift_right_logical (Prng.next prng)
           (2 + Prng.int_below prng 30))
    done;
    Csr_file.write vh.Vhart.csr (Csr_addr.pmpcfg 0) (Prng.next prng);
    vh.Vhart.mprv_active <- Prng.int_below prng 4 = 0;
    let ventries = Csr_file.pmp_entries vh.Vhart.csr in
    List.iter
      (fun world ->
        vh.Vhart.world <- world;
        let host_entries = Vpmp.build config vh ~policy:[] in
        (* install physically too, exercising the serializer *)
        Vpmp.install config vh hart ~policy:[];
        let host_decoded = Csr_file.pmp_entries hart.Mir_rv.Hart.csr in
        let priv =
          match world with
          | Vhart.Firmware -> Priv.U (* vM-mode is physically U *)
          | Vhart.Os -> Priv.S
        in
        List.iter
          (fun addr ->
            List.iter
              (fun access ->
                incr cases;
                let host_ok =
                  Pmp.check ~entries:host_entries ~priv access ~addr
                    ~size:8
                in
                let host_ok' =
                  Pmp.check ~entries:host_decoded ~priv access ~addr
                    ~size:8
                in
                let expected =
                  if
                    in_range config.Config.miralis_base
                      config.Config.miralis_size addr
                    || in_range Vpmp.vdev_base Vpmp.vdev_size addr
                  then false
                  else
                    match world with
                    | Vhart.Firmware ->
                        if vh.Vhart.mprv_active && access <> Pmp.Exec
                        then false
                        else
                          Pmp.check ~entries:ventries ~priv:Priv.M
                            access ~addr ~size:8
                    | Vhart.Os ->
                        Pmp.check ~entries:ventries ~priv:Priv.S access
                          ~addr ~size:8
                in
                if host_ok <> expected || host_ok' <> expected then begin
                  incr bad;
                  if !first = None then
                    first :=
                      Some
                        (Printf.sprintf
                           "world=%s mprv=%b addr=%Lx access=%s: \
                            host=%b installed=%b expected=%b"
                           (Vhart.world_name world)
                           vh.Vhart.mprv_active addr
                           (match access with
                           | Pmp.Read -> "R"
                           | Pmp.Write -> "W"
                           | Pmp.Exec -> "X")
                           host_ok host_ok' expected)
                end)
              [ Pmp.Read; Pmp.Write; Pmp.Exec ])
          (probe_addresses prng config ventries))
      [ Vhart.Firmware; Vhart.Os ]
  done;
  (!cases, 0, !bad, !first)
