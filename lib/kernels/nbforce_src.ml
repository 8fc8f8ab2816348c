(** The NBFORCE kernel as mini-Fortran source (the paper's Figure 13), plus
    helpers to run it — original, flattened, and SIMDized — through the
    interpreters against a real pairlist.  This is the end-to-end
    demonstration that the {e compiler} path (parse → analyze → flatten →
    SIMDize → execute) agrees with the native kernel simulations. *)

open Lf_lang

(** Figure 13.  [force] is registered as an external function; [f]
    accumulates the (scalar) force magnitudes per atom.  Declarations use
    the parameters [n] and [maxp] seeded by the driver. *)
let source =
  {|
PROGRAM nbforce
  INTEGER n, maxp, at1, at2, pr
  REAL f(n)
  INTEGER pcnt(n)
  INTEGER partners(n, maxp)
  DO at1 = 1, n
    DO pr = 1, pcnt(at1)
      at2 = partners(at1, pr)
      f(at1) = f(at1) + force(at1, at2)
    ENDDO
  ENDDO
END
|}

let program () = Parser.program_of_string source

(** Scalar stand-in for the force routine: the magnitude of the LJ +
    Coulomb pair force.  Registered under the name [force]. *)
let force_fn (mol : Lf_md.Molecule.t) (args : Values.value list) :
    Values.value =
  match args with
  | [ a; b ] ->
      let i = Values.as_int a - 1 and j = Values.as_int b - 1 in
      Values.VReal
        (Lf_md.Force.norm
           (Lf_md.Force.pair
              mol.Lf_md.Molecule.atoms.(i)
              mol.Lf_md.Molecule.atoms.(j)))
  | _ -> Errors.runtime_error "force expects two arguments"

let params (pl : Lf_md.Pairlist.t) =
  let n = Array.length pl.Lf_md.Pairlist.pcnt in
  let maxp = max 1 (Lf_md.Pairlist.max_pcnt pl) in
  (n, maxp)

(** Bind [pcnt], [partners] (1-based contents) and a zeroed [f]. *)
let bind_arrays (pl : Lf_md.Pairlist.t) ~n ~maxp ~set_global =
  let pcnt = Nd.create [| n |] 0 in
  let partners = Nd.create [| n; maxp |] 0 in
  Array.iteri
    (fun i ps ->
      Nd.set pcnt [| i + 1 |] (Array.length ps);
      Array.iteri (fun k j -> Nd.set partners [| i + 1; k + 1 |] (j + 1)) ps)
    pl.Lf_md.Pairlist.partners;
  set_global "pcnt" (Values.AInt pcnt);
  set_global "partners" (Values.AInt partners);
  set_global "f" (Values.AReal (Nd.create [| n |] 0.0))

(** Run a (possibly transformed) sequential version and return the force
    array and step count. *)
let run_sequential (prog : Ast.program) (mol : Lf_md.Molecule.t)
    (pl : Lf_md.Pairlist.t) : float array * int =
  let n, maxp = params pl in
  let ctx =
    Interp.run
      ~params:[ ("n", Values.VInt n); ("maxp", Values.VInt maxp) ]
      ~setup:(fun ctx ->
        Interp.register_func ctx "force" (force_fn mol);
        bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
            Env.set ctx.Interp.env name (Values.VArr a)))
      prog
  in
  match Env.find ctx.Interp.env "f" with
  | Values.VArr (Values.AReal f) -> (Nd.to_array f, ctx.Interp.steps)
  | _ -> Errors.runtime_error "f is not a REAL array"

(** Run a SIMDized version on the SIMD VM with [p] lanes; returns the
    force array and the VM metrics (every optimizer level and [verify]
    setting produces identical results). *)
let run_simd ?opt ?verify (prog : Ast.program)
    (mol : Lf_md.Molecule.t) (pl : Lf_md.Pairlist.t) ~p :
    float array * Lf_simd.Metrics.t =
  let n, maxp = params pl in
  let vm =
    Lf_simd.Vm.run ?opt ?verify ~p
      ~setup:(fun vm ->
        Lf_simd.Vm.register_func vm "force" (force_fn mol);
        Lf_simd.Vm.bind_scalar vm "n" (Values.VInt n);
        Lf_simd.Vm.bind_scalar vm "maxp" (Values.VInt maxp);
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p);
        bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
            Lf_simd.Vm.bind_global vm name a))
      prog
  in
  match Lf_simd.Vm.read_global vm "f" with
  | Values.AReal f -> (Nd.to_array f, vm.Lf_simd.Vm.metrics)
  | _ -> Errors.runtime_error "f is not a REAL array"

(** Owner-side scalar force magnitudes, the oracle for both paths. *)
let reference (mol : Lf_md.Molecule.t) (pl : Lf_md.Pairlist.t) : float array =
  Array.mapi
    (fun i ps ->
      Array.fold_left
        (fun acc j ->
          acc
          +. Lf_md.Force.norm
               (Lf_md.Force.pair
                  mol.Lf_md.Molecule.atoms.(i)
                  mol.Lf_md.Molecule.atoms.(j)))
        0.0 ps)
    pl.Lf_md.Pairlist.partners

(* ------------------------------------------------------------------ *)
(* CALL-based variant (Figures 16/17 use CALL OneF)                    *)
(* ------------------------------------------------------------------ *)

(** NBFORCE with the force routine as a subroutine call, like the paper's
    actual CM/MP-Fortran kernels.  The number of executions of the CALL
    statement is exactly the "number of calls to Force routine" of
    Table 2 — one per vector step on the SIMD VM, regardless of masking. *)
let source_call =
  {|
PROGRAM nbforce
  INTEGER n, maxp, at1, at2, pr
  REAL f(n)
  INTEGER pcnt(n)
  INTEGER partners(n, maxp)
  DO at1 = 1, n
    DO pr = 1, pcnt(at1)
      at2 = partners(at1, pr)
      CALL onef(at1, at2)
    ENDDO
  ENDDO
END
|}

let program_call () = Parser.program_of_string source_call

(** The [onef] subroutine for the sequential interpreter: accumulates the
    scalar force magnitude into [f]. *)
let onef_seq (mol : Lf_md.Molecule.t) : Interp.proc =
 fun ctx args ->
  match args with
  | [ a; _b ] ->
      let i = Values.as_int a in
      let v = Values.as_float (force_fn mol args) in
      (match Env.find ctx.Interp.env "f" with
      | Values.VArr (Values.AReal f) ->
          Nd.set f [| i |] (Nd.get f [| i |] +. v)
      | _ -> Errors.runtime_error "f is not a REAL array")
  | _ -> Errors.runtime_error "onef expects two arguments"

(** The [onef] subroutine for the SIMD VM: one vector step; accumulates
    per active lane. *)
let onef_simd (mol : Lf_md.Molecule.t) : Lf_simd.Vm.proc =
 fun vm ~mask args ->
  match args with
  | [ a; b ] ->
      (match Lf_simd.Vm.read_global vm "f" with
      | Values.AReal f ->
          Array.iteri
            (fun lane active ->
              if active then begin
                let i = Values.as_int (Lf_simd.Pval.lane a lane) in
                let v =
                  Values.as_float
                    (force_fn mol
                       [ Lf_simd.Pval.lane a lane; Lf_simd.Pval.lane b lane ])
                in
                Nd.set f [| i |] (Nd.get f [| i |] +. v)
              end)
            mask
      | _ -> Errors.runtime_error "f is not a REAL array")
  | _ -> Errors.runtime_error "onef expects two arguments"

(** Run a CALL-based (possibly transformed) program on the SIMD VM and
    return (forces, metrics); the "onef" call count in the metrics is the
    Table 2 quantity. *)
let run_simd_call (prog : Ast.program)
    (mol : Lf_md.Molecule.t) (pl : Lf_md.Pairlist.t) ~p :
    float array * Lf_simd.Metrics.t =
  let n, maxp = params pl in
  let vm =
    Lf_simd.Vm.run ~p
      ~setup:(fun vm ->
        Lf_simd.Vm.register_proc vm "onef" (onef_simd mol);
        Lf_simd.Vm.register_func vm "force" (force_fn mol);
        Lf_simd.Vm.bind_scalar vm "n" (Values.VInt n);
        Lf_simd.Vm.bind_scalar vm "maxp" (Values.VInt maxp);
        Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p);
        bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
            Lf_simd.Vm.bind_global vm name a))
      prog
  in
  match Lf_simd.Vm.read_global vm "f" with
  | Values.AReal f -> (Nd.to_array f, vm.Lf_simd.Vm.metrics)
  | _ -> Errors.runtime_error "f is not a REAL array"

(** Sequential analogue for the CALL-based program. *)
let run_sequential_call (prog : Ast.program) (mol : Lf_md.Molecule.t)
    (pl : Lf_md.Pairlist.t) : float array * int =
  let n, maxp = params pl in
  let ctx =
    Interp.run
      ~params:[ ("n", Values.VInt n); ("maxp", Values.VInt maxp) ]
      ~setup:(fun ctx ->
        Interp.register_proc ctx "onef" (onef_seq mol);
        Interp.register_func ctx "force" (force_fn mol);
        bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
            Env.set ctx.Interp.env name (Values.VArr a)))
      prog
  in
  match Env.find ctx.Interp.env "f" with
  | Values.VArr (Values.AReal f) -> (Nd.to_array f, ctx.Interp.steps)
  | _ -> Errors.runtime_error "f is not a REAL array"
