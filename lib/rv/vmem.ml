module Bits = Mir_util.Bits

type access = Fetch | Load | Store

let pte_v = 0x01L
let pte_r = 0x02L
let pte_w = 0x04L
let pte_x = 0x08L
let pte_u = 0x10L
let pte_g = 0x20L
let pte_a = 0x40L
let pte_d = 0x80L
let pte_ppn pte = Bits.extract pte ~lo:10 ~hi:53

let fault = function
  | Fetch -> Cause.Instr_page_fault
  | Load -> Cause.Load_page_fault
  | Store -> Cause.Store_page_fault

let page_shift = 12
let levels = 3
let ptesize = 8L

(* A successful walk: the translated physical address, the leaf PTE
   *after* the hardware A/D update, and the level it was found at
   (0 = 4 KiB page).  This is exactly what a TLB needs to install an
   entry without re-deriving anything. *)
type leaf = { phys : int64; pte : int64; level : int }

(* The walker is functorized over its PTE memory so the hot path reads
   the bus directly (static module functions, no per-call closures)
   while the explorer's TLB oracle and the unit tests keep the
   flexible closure-backed view below. *)
module type MEM = sig
  type mem

  val read : mem -> int64 -> int64 option
  val write : mem -> int64 -> int64 -> unit
end

module Make (M : MEM) = struct
  let translate_leaf mem ~satp ~priv ~sum ~mxr access vaddr =
    let mode = Bits.extract satp ~lo:60 ~hi:63 in
    if priv = Priv.M || mode = 0L then
      Ok { phys = vaddr; pte = 0L; level = -1 }
    else begin
      (* Sv39: the virtual address must be sign-extended from bit 38. *)
      let canonical = Bits.sext vaddr ~width:39 = vaddr in
      if not canonical then Error (fault access)
      else
        let root =
          Int64.shift_left (Bits.extract satp ~lo:0 ~hi:43) page_shift
        in
        let vpn i =
          Bits.extract vaddr ~lo:(page_shift + (9 * i))
            ~hi:(page_shift + (9 * i) + 8)
        in
        let rec walk level table =
          if level < 0 then Error (fault access)
          else
            let pte_addr = Int64.add table (Int64.mul (vpn level) ptesize) in
            match M.read mem pte_addr with
            | None -> Error (fault access)
            | Some pte ->
                let v = Int64.logand pte pte_v <> 0L in
                let r = Int64.logand pte pte_r <> 0L in
                let w = Int64.logand pte pte_w <> 0L in
                let x = Int64.logand pte pte_x <> 0L in
                if (not v) || ((not r) && w) then Error (fault access)
                else if (not r) && not x then
                  (* pointer to next level *)
                  walk (level - 1)
                    (Int64.shift_left (pte_ppn pte) page_shift)
                else begin
                  (* leaf PTE: check permissions *)
                  let u = Int64.logand pte pte_u <> 0L in
                  let perm_ok =
                    match access with
                    | Fetch -> x && (if priv = Priv.U then u else not u)
                    | Load ->
                        (r || (mxr && x))
                        && (if priv = Priv.U then u else (not u) || sum)
                    | Store ->
                        w && (if priv = Priv.U then u else (not u) || sum)
                  in
                  if not perm_ok then Error (fault access)
                  else begin
                    (* misaligned superpage check *)
                    let ppn = pte_ppn pte in
                    let misaligned =
                      level > 0
                      && Bits.extract ppn ~lo:0 ~hi:((9 * level) - 1) <> 0L
                    in
                    if misaligned then Error (fault access)
                    else begin
                      (* hardware-managed A/D bits *)
                      let need_d = access = Store in
                      let pte' =
                        Int64.logor pte
                          (Int64.logor pte_a (if need_d then pte_d else 0L))
                      in
                      if pte' <> pte then M.write mem pte_addr pte';
                      let page_off = Bits.extract vaddr ~lo:0 ~hi:11 in
                      let ppn_mixed =
                        if level = 0 then ppn
                        else
                          (* superpage: low PPN bits come from vaddr *)
                          Int64.logor
                            (Int64.logand ppn
                               (Int64.lognot (Bits.mask (9 * level))))
                            (Bits.extract vaddr ~lo:page_shift
                               ~hi:(page_shift + (9 * level) - 1))
                      in
                      Ok
                        {
                          phys =
                            Int64.logor
                              (Int64.shift_left ppn_mixed page_shift)
                              page_off;
                          pte = pte';
                          level;
                        }
                    end
                  end
                end
        in
        walk (levels - 1) root
    end
end

(* Bus-backed walker: the interpreter's path.  PTE reads and A/D
   write-back go straight to the bus with no intermediate closures. *)
module Bus_mem = struct
  type mem = Bus.t

  let read bus addr = Bus.load bus addr 8
  let write bus addr v = ignore (Bus.store bus addr 8 v)
end

module On_bus = Make (Bus_mem)

(* Closure-backed walker: the [translate] signature for the explorer's
   TLB oracle (which suppresses A/D write-back) and for tests that back
   PTE memory with a Hashtbl. *)
module Fn_mem = struct
  type mem = {
    read : int64 -> int64 option;
    write : int64 -> int64 -> unit;
  }

  let read m a = m.read a
  let write m a v = m.write a v
end

module On_fns = Make (Fn_mem)

let translate ~read ~write ~satp ~priv ~sum ~mxr access vaddr =
  Result.map
    (fun l -> l.phys)
    (On_fns.translate_leaf { Fn_mem.read; write } ~satp ~priv ~sum ~mxr access
       vaddr)
