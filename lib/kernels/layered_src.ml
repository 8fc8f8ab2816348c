(** The paper's actual CM/MP-Fortran kernels (Figures 16 and 17) as
    mini-Fortran F90simd source with explicit {e memory layers}: atoms are
    laid out cut-and-stack over P lanes × Lrs layers, data lives in PLURAL
    arrays with a per-lane layer dimension, and the unflattened kernel
    sweeps layers per partner rank while the flattened one walks per-lane
    (layer, rank) cursors via indirect addressing.

    Running these on the SIMD VM reproduces §5.3's implementation
    experience directly: the onef call count equals Table 2's
    [maxPCnt × layers] for the unflattened kernels (maxLrs for L², Lrs for
    L¹) and [max_q Σ pCnt] (Eq. 1′) for the flattened one. *)

open Lf_lang

(** Figure 17 analogue (unflattened).  [sweep] is [lrs] for the
    layer-selecting L¹ version and [maxlrs] for the all-layers L²
    version — passed as the upper bound of the layer loop. *)
let unflattened_source =
  {|
PROGRAM allf
  INTEGER p, maxlrs, lrs, maxpcnt, sweep, pr, ly
  PLURAL INTEGER at1l(maxlrs), pcntl(maxlrs)
  PLURAL REAL fl(maxlrs)
  DO pr = 1, maxpcnt
    DO ly = 1, sweep
      WHERE (ly <= lrs .AND. pr <= pcntl(ly))
        CALL onefl(ly, pr)
      ENDWHERE
    ENDDO
  ENDDO
END
|}

(** Figure 16 analogue (flattened): per-lane cursors [l] (layer) and [pr]
    (partner rank); [at1 = iproc; at1 = at1 + p] realizes the cut-and-stack
    indirection of the paper's [at1 = \[1:P\]] ... [at1 = at1 + P]. *)
let flattened_source =
  {|
PROGRAM allfflat
  INTEGER p, maxlrs, lrs, maxpcnt
  PLURAL INTEGER l, pr, at1
  PLURAL INTEGER at1l(maxlrs), pcntl(maxlrs)
  PLURAL REAL fl(maxlrs)
  l = 1
  pr = 1
  at1 = iproc
  WHILE (any(l <= lrs))
    WHERE (l <= lrs)
      CALL onefl(l, pr)
      WHERE (pr >= pcntl(l))
        pr = 1
        l = l + 1
        at1 = at1 + p
      ELSEWHERE
        pr = pr + 1
      ENDWHERE
    ENDWHERE
  ENDWHILE
END
|}

let unflattened () = Parser.program_of_string unflattened_source
let flattened () = Parser.program_of_string flattened_source

(** Cut-and-stack atom id for (0-based lane, 1-based layer): the atom in
    lane [q], layer [ly] is [q + (ly-1)*P], or [None] past the end. *)
let atom_of ~p ~n ~lane ~ly =
  let a = lane + ((ly - 1) * p) in
  if a < n then Some a else None

(** Bind the layered PLURAL data: per-lane pcnt and atom-id layers, plus a
    zeroed per-lane force accumulator. *)
let bind_layered vm (pl : Lf_md.Pairlist.t) ~p ~maxlrs =
  let n = Array.length pl.Lf_md.Pairlist.pcnt in
  Lf_simd.Vm.bind_plural_arr vm "pcntl" Ast.TInt [| maxlrs |];
  Lf_simd.Vm.bind_plural_arr vm "at1l" Ast.TInt [| maxlrs |];
  Lf_simd.Vm.bind_plural_arr vm "fl" Ast.TReal [| maxlrs |];
  let pcntl = Lf_simd.Vm.read_global vm "pcntl" in
  let at1l = Lf_simd.Vm.read_global vm "at1l" in
  for lane = 0 to p - 1 do
    for ly = 1 to maxlrs do
      match atom_of ~p ~n ~lane ~ly with
      | Some a ->
          Values.arr_set pcntl [| lane + 1; ly |]
            (Values.VInt pl.Lf_md.Pairlist.pcnt.(a));
          Values.arr_set at1l [| lane + 1; ly |] (Values.VInt (a + 1))
      | None ->
          Values.arr_set pcntl [| lane + 1; ly |] (Values.VInt 0);
          Values.arr_set at1l [| lane + 1; ly |] (Values.VInt 0)
    done
  done

(** The layered force subroutine: [onefl(ly, pr)] accumulates, per active
    lane, the force between its layer-[ly] atom and that atom's [pr]-th
    partner into [fl(ly)]. *)
let onefl (mol : Lf_md.Molecule.t) (pl : Lf_md.Pairlist.t) :
    Lf_simd.Vm.proc =
 fun vm ~mask args ->
  match args with
  | [ ly; pr ] ->
      let fl = Lf_simd.Vm.read_global vm "fl" in
      let n = Array.length pl.Lf_md.Pairlist.pcnt in
      Array.iteri
        (fun lane active ->
          if active then begin
            let ly = Values.as_int (Lf_simd.Pval.lane ly lane) in
            let pr = Values.as_int (Lf_simd.Pval.lane pr lane) in
            match atom_of ~p:vm.Lf_simd.Vm.p ~n ~lane ~ly with
            | Some a when pr <= pl.Lf_md.Pairlist.pcnt.(a) ->
                let b = pl.Lf_md.Pairlist.partners.(a).(pr - 1) in
                let v =
                  Lf_md.Force.norm
                    (Lf_md.Force.pair
                       mol.Lf_md.Molecule.atoms.(a)
                       mol.Lf_md.Molecule.atoms.(b))
                in
                Values.arr_set fl [| lane + 1; ly |]
                  (Values.VReal
                     (Values.as_float
                        (Values.arr_get fl [| lane + 1; ly |])
                     +. v))
            | _ -> ()
          end)
        mask
  | _ -> Errors.runtime_error "onefl expects two arguments"

type run = {
  forces : float array;  (** per-atom scalar force magnitudes *)
  onef_calls : int;  (** vector invocations of the layered force routine *)
  metrics : Lf_simd.Metrics.t;
}

(** Run one of the layered kernels.  [sweep] selects L¹ ([`Lrs]) vs L²
    ([`MaxLrs]) for the unflattened program and is ignored by the
    flattened one. *)
let run_kernel ?(sweep = `MaxLrs) (prog : Ast.program)
    (mol : Lf_md.Molecule.t) (pl : Lf_md.Pairlist.t) ~p ~nmax : run =
  let n = Array.length pl.Lf_md.Pairlist.pcnt in
  let lrs = 1 + ((n - 1) / p) in
  let maxlrs = 1 + ((nmax - 1) / p) in
  let maxpcnt = max 1 (Lf_md.Pairlist.max_pcnt pl) in
  let vm =
    Lf_simd.Vm.run ~p
      ~setup:(fun vm ->
        Lf_simd.Vm.register_proc vm "onefl" (onefl mol pl);
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p);
        Lf_simd.Vm.bind_scalar vm "lrs" (Values.VInt lrs);
        Lf_simd.Vm.bind_scalar vm "maxlrs" (Values.VInt maxlrs);
        Lf_simd.Vm.bind_scalar vm "maxpcnt" (Values.VInt maxpcnt);
        Lf_simd.Vm.bind_scalar vm "sweep"
          (Values.VInt (match sweep with `Lrs -> lrs | `MaxLrs -> maxlrs));
        bind_layered vm pl ~p ~maxlrs)
      prog
  in
  (* gather per-lane layered accumulators back to per-atom forces *)
  let fl = Lf_simd.Vm.read_global vm "fl" in
  let forces = Array.make n 0.0 in
  for lane = 0 to p - 1 do
    for ly = 1 to maxlrs do
      match atom_of ~p ~n ~lane ~ly with
      | Some a ->
          forces.(a) <- Values.as_float (Values.arr_get fl [| lane + 1; ly |])
      | None -> ()
    done
  done;
  {
    forces;
    onef_calls = Lf_simd.Metrics.call_count vm.Lf_simd.Vm.metrics "onefl";
    metrics = vm.Lf_simd.Vm.metrics;
  }
