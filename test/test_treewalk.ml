(** The typed tree-walker against its boxed predecessor
    ([Oracle_treewalk]): final variable state compared bit for bit
    (reals by their bits, not [equal_value]'s tolerance), [Metrics]
    compared exactly, and runtime errors compared by message — with the
    partial state a failing run leaves behind compared too. *)

open Helpers
open Lf_lang
open Values
module Vm = Lf_simd.Vm
module Frame = Lf_simd.Frame
module Pval = Lf_simd.Pval
module Metrics = Lf_simd.Metrics
module O = Oracle_treewalk

let fuel = 20_000

(* -- bitwise comparison -------------------------------------------- *)

let bits x = Int64.bits_of_float x

let same_value a b =
  match (a, b) with
  | VReal x, VReal y -> Int64.equal (bits x) (bits y)
  | VArr (AReal x), VArr (AReal y) ->
      Nd.dims x = Nd.dims y
      && Array.for_all2
           (fun a b -> Int64.equal (bits a) (bits b))
           (Nd.to_array x) (Nd.to_array y)
  | _ -> a = b

let same_entry (o : O.entry) (n : Vm.entry) =
  match (o, n) with
  | O.VScalar r, Vm.VScalar r' -> same_value !r !r'
  | O.VPlural vs, Vm.VPlural l ->
      Array.length vs = Frame.lanes_length l
      && Array.for_all Fun.id
           (Array.mapi (fun i v -> same_value v (Frame.lane_value l i)) vs)
  | O.VGlobal a, Vm.VGlobal b | O.VPluralArr a, Vm.VPluralArr b ->
      same_value (VArr a) (VArr b)
  | _ -> false

(* the first variable whose state differs, if any *)
let state_diff (o : O.t) (n : Vm.t) =
  let names tbl =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  in
  if names o.O.vars <> names n.Vm.vars then Some "(the variable sets)"
  else
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if same_entry e (Hashtbl.find n.Vm.vars k) then None else Some k)
      o.O.vars None

(* -- running both -------------------------------------------------- *)

(* The typed tree-walker's run, keeping the machine on an error so its
   partial state can be compared: [Vm.run] with [`Tree_walk], unrolled. *)
let run_typed ~p ~setup (prog : Ast.program) =
  let vm = Vm.create ~fuel ~p () in
  match
    setup vm;
    Vm.declare vm prog.Ast.p_decls;
    Vm.exec_block vm ~mask:(Vm.full_mask vm) prog.Ast.p_body
  with
  | () -> (vm, None)
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      (vm, Some (Errors.to_message e))

let disagreement ~p ~setup ~oracle_setup prog =
  let o, oe = O.run ~fuel ~p ~setup:oracle_setup prog in
  let n, ne = run_typed ~p ~setup prog in
  let show = Option.value ~default:"ok" in
  if oe <> ne then
    Some (Fmt.str "outcome: typed %s, boxed %s" (show ne) (show oe))
  else if not (Metrics.equal o.O.metrics n.Vm.metrics) then Some "metrics"
  else
    Option.map (fun v -> Fmt.str "state of %s (outcome %s)" v (show ne))
      (state_diff o n)

(* -- the generated programs' environment --------------------------- *)

let oracle_simd_setup (o : O.t) =
  let n = Lf_testgen.Gen.simd_global_n in
  O.bind_scalar o "n" (VInt n);
  O.bind_global o "g"
    (AInt (Nd.of_array (Array.init n (fun i -> 10 * (i + 1)))));
  O.bind_global o "h"
    (AReal (Nd.of_array (Array.init n (fun i -> 0.5 *. float_of_int (i + 1)))));
  O.bind_plural_arr o "f" Ast.TInt [| 3 |];
  Hashtbl.replace o.O.procs "tally" (fun ~mask:_ _ -> ());
  Hashtbl.replace o.O.funcs "sq" (function
    | [ VInt n ] -> VInt (n * n)
    | [ v ] -> v
    | _ -> VInt 0)

let agrees_at ps prog =
  List.for_all
    (fun p ->
      match
        disagreement ~p
          ~setup:(Lf_testgen.Gen.simd_prog_setup ~p)
          ~oracle_setup:oracle_simd_setup prog
      with
      | None -> true
      | Some what ->
          QCheck.Test.fail_reportf "p=%d: %s differs on@.%s" p what
            (Pretty.program_to_string prog))
    ps

let gen_ps = [ 0; 1; 5; 64; 130 ]

let mutant_gen =
  let open QCheck.Gen in
  let* prog =
    oneof [ Lf_testgen.Gen.simd_prog_gen; Lf_testgen.Gen.simd_prog_ext_gen ]
  in
  let* n = 1 -- 4 in
  let* seed = int in
  return
    (Lf_fuzz.Mutate.mutate ~n ~rand:(Random.State.make [| seed |])
       (Lf_fuzz.Input.make Lf_fuzz.Input.Simd prog))
      .Lf_fuzz.Input.prog

let print_prog = Pretty.program_to_string

let prop name count gen =
  qcheck_test
    (QCheck.Test.make ~count ~name (QCheck.make ~print:print_prog gen)
       (agrees_at gen_ps))

(* -- files --------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sources dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".f")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* [prog] flattened and SIMDized for [p] lanes, as flattenc does *)
let simd_flatten ~p prog =
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty = true;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Cyclic; p = Ast.EInt p };
    }
  in
  match Lf_core.Pipeline.flatten_program ~opts prog with
  | Ok o -> Some o.Lf_core.Pipeline.program
  | Error _ -> None

(* EXAMPLE's inputs (k, l), and NBFORCE's (n, maxp, pcnt, partners and
   a pure [force]) on a small SOD pairlist, bound alike in both
   machines; the generated programs' environment for everything else *)
let example_l = [| 4; 1; 2; 1; 1; 3; 1; 3 |]
let mol = lazy (Lf_md.Workload.sod ~n:24 ())
let force args = Lf_kernels.Nbforce_src.force_fn (Lazy.force mol) args

let nbforce_arrays () =
  let pl = Lf_md.Workload.pairlist (Lazy.force mol) ~cutoff:8.0 in
  let n, maxp = Lf_kernels.Nbforce_src.params pl in
  let arrays = ref [] in
  Lf_kernels.Nbforce_src.bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
      arrays := (name, a) :: !arrays);
  (n, maxp, List.rev !arrays)

let file_setups () =
  let n, maxp, arrays = nbforce_arrays () in
  let both bind_s bind_g register =
    bind_s "k" (VInt 8);
    bind_g "l" (AInt (Nd.of_array example_l));
    bind_s "n" (VInt n);
    bind_s "maxp" (VInt maxp);
    List.iter (fun (name, a) -> bind_g name (arr_copy a)) arrays;
    register "force" force
  in
  ( (fun vm ->
      both (Vm.bind_scalar vm) (Vm.bind_global vm) (fun name f ->
          Vm.register_func vm name f)),
    fun o ->
      both (O.bind_scalar o) (O.bind_global o) (fun name f ->
          Hashtbl.replace o.O.funcs name f) )

let t_files () =
  let files = sources "../examples/fortran" @ sources "corpus" in
  checkb "example and corpus files found" (List.length files >= 8);
  let setup, oracle_setup = file_setups () in
  List.iter
    (fun path ->
      match Parser.program_of_string (read_file path) with
      | exception _ -> ()
      | prog ->
          let progs =
            ("as written", prog)
            :: List.filter_map
                 (fun p ->
                   Option.map
                     (fun f -> (Fmt.str "flattened for p=%d" p, f))
                     (simd_flatten ~p prog))
                 [ 4; 8 ]
          in
          List.iter
            (fun (form, prog) ->
              List.iter
                (fun p ->
                  match disagreement ~p ~setup ~oracle_setup prog with
                  | None -> ()
                  | Some what ->
                      Alcotest.failf "%s (%s) at p=%d: %s differs" path form p
                        what)
                [ 1; 4; 8 ])
            progs)
    files

(* -- named cases --------------------------------------------------- *)

let named_p = [ 1; 3; 8; 130 ]

let check_named ?(setup = fun _ -> ()) ?(oracle_setup = fun _ -> ()) name src =
  let prog = Parser.program_of_string ("PROGRAM t\n" ^ src ^ "\nEND\n") in
  List.iter
    (fun p ->
      match disagreement ~p ~setup ~oracle_setup prog with
      | None -> ()
      | Some what -> Alcotest.failf "%s at p=%d: %s differs" name p what)
    named_p

let t_mixed_lanes () =
  check_named "REAL under a partial mask into an INTEGER plural"
    "PLURAL INTEGER x\n\
     x = iproc\n\
     WHERE (iproc > 2)\n\
    \  x = 0.5 * iproc\n\
     ENDWHERE\n\
     y = x + 1\n\
     c = x > 1.5\n\
     s = sum(x)\n\
     WHERE (iproc > 2)\n\
    \  x = 7\n\
     ENDWHERE\n\
     z = x * 2\n\
     x = 1.5\n\
     w = -x"

let t_empty_mask_reductions () =
  check_named "MAXVAL/MINVAL/SUM under an all-masked WHERE"
    "PLURAL REAL r\n\
     PLURAL LOGICAL b\n\
     r = iproc * 0.5\n\
     b = iproc > 1\n\
     WHERE (iproc > 1000)\n\
    \  a1 = maxval(r)\n\
    \  a2 = minval(r)\n\
    \  a3 = sum(r)\n\
    \  t1 = maxval(r * 2.0)\n\
    \  t2 = minval(r + 1.0)\n\
    \  t3 = sum(-r)\n\
    \  i1 = maxval(iproc)\n\
    \  i2 = sum(iproc * 3)\n\
    \  b1 = maxval(b)\n\
    \  b2 = minval(b .AND. b)\n\
    \  b3 = any(b)\n\
    \  b4 = all(b)\n\
    \  b5 = count(b)\n\
    \  g1 = sum(1:8)\n\
    \  g2 = maxval(1:8)\n\
     ENDWHERE\n\
     WHERE (iproc > 1)\n\
    \  m1 = maxval(r)\n\
    \  m2 = sum(r * 2.0)\n\
    \  m3 = minval(iproc)\n\
     ENDWHERE"

let t_division_by_zero () =
  check_named "integer division by zero on the second active lane"
    "PLURAL INTEGER d\n\
     d = iproc - 3\n\
     q = iproc\n\
     WHERE (iproc > 1)\n\
    \  q = 10 / d\n\
     ENDWHERE";
  check_named "MOD by zero, after a partial scatter"
    "INTEGER g(200)\n\
     PLURAL INTEGER d\n\
     d = iproc - 2\n\
     g(iproc) = iproc\n\
     WHERE (iproc > 1)\n\
    \  g(iproc) = mod(10, d)\n\
     ENDWHERE"

let t_nan_compare () =
  check_named "NaN comparisons"
    "PLURAL REAL z\n\
     z = (iproc - iproc) * 1.0 / 0.0\n\
     c1 = z == z\n\
     c2 = z < 1.0\n\
     c3 = 1 < z\n\
     c4 = z /= 0.5\n\
     c5 = z >= z\n\
     m1 = maxval(z)\n\
     m2 = minval(z)\n\
     m3 = max(z, 1.0)\n\
     m4 = min(2, z)\n\
     WHERE (z == z)\n\
    \  k = iproc\n\
     ENDWHERE"

let t_int_real_extrema () =
  check_named "MAX/MIN of int x real"
    "m1 = max(iproc, 2.5)\n\
     m2 = min(2, iproc * 1.5)\n\
     m3 = max(iproc, 3)\n\
     m4 = min(iproc * 0.5, iproc - 2)\n\
     m5 = max(iproc, 2, 5)\n\
     s1 = sqrt(iproc)\n\
     s2 = exp(iproc * 0.1)\n\
     a1 = abs(iproc - 4)\n\
     a2 = abs(0.5 - iproc)\n\
     WHERE (iproc > 2)\n\
    \  m6 = max(iproc, 2.5)\n\
    \  a3 = abs(3 - iproc)\n\
     ENDWHERE\n\
     n1 = -(iproc * 1.5)\n\
     n2 = .NOT. (iproc > 2)"

let t_masked_temporary_call () =
  (* the arguments each machine's procedure saw, per call, boxed *)
  let typed = ref [] and boxed = ref [] in
  let setup vm =
    Vm.register_proc vm "probe" (fun _ ~mask args ->
        typed :=
          ( Array.to_list mask,
            List.map
              (function
                | Pval.Plural l -> Array.to_list (Frame.values_of_lanes l)
                | v -> [ Pval.lane v 0 ])
              args )
          :: !typed)
  in
  let oracle_setup o =
    Hashtbl.replace o.O.procs "probe" (fun ~mask args ->
        boxed :=
          ( Array.to_list mask,
            List.map
              (function O.Plural vs -> Array.to_list vs | v -> [ O.lane v 0 ])
              args )
          :: !boxed)
  in
  check_named ~setup ~oracle_setup "a procedure receiving masked temporaries"
    "PLURAL REAL x\n\
     x = iproc * 1.5\n\
     WHERE (iproc > 2)\n\
    \  CALL probe(iproc * 2, iproc, x * 1.5, x, -x, iproc > 3, 4)\n\
     ENDWHERE\n\
     CALL probe(iproc * 2, x)";
  checkb "procedures saw the same calls" (!typed <> [] && !typed = !boxed)

let suite =
  [
    prop "generated programs" 150 Lf_testgen.Gen.simd_prog_gen;
    prop "generated programs with calls" 100 Lf_testgen.Gen.simd_prog_ext_gen;
    prop "mutated programs" 200 mutant_gen;
    case "example and corpus files" t_files;
    case "mixed lanes and re-specialization" t_mixed_lanes;
    case "all-masked reductions" t_empty_mask_reductions;
    case "division by zero on a later lane" t_division_by_zero;
    case "NaN comparisons" t_nan_compare;
    case "MAX/MIN of int and real" t_int_real_extrema;
    case "procedure receiving masked temporaries" t_masked_temporary_call;
  ]
