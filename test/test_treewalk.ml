(** The engine against the boxed reference machine
    ([Lf_testgen.Ref_vm]), at [-O0] and at [-O1] under the IR verifier:
    final variable state compared bit for bit (reals by their bits, not
    [equal_value]'s tolerance), [Metrics] compared exactly, and runtime
    errors compared by message — with the partial state a failing run
    leaves behind compared too. *)

open Helpers
open Lf_lang
open Values
module Vm = Lf_simd.Vm
module Frame = Lf_simd.Frame
module Pval = Lf_simd.Pval
module Ref_vm = Lf_testgen.Ref_vm

let fuel = 20_000

(* -- running both -------------------------------------------------- *)

(* How the engine at -O0, or at -O1 with the verifier, departs from the
   reference, if it does. *)
let disagreement ~p ~setup prog =
  let reference = Ref_vm.run ~fuel ~p ~setup prog in
  List.find_map
    (fun opt ->
      Ref_vm.disagreement reference
        (Ref_vm.compiled ~fuel ~opt ~verify:(opt = 1) ~p ~setup prog)
      |> Option.map (Fmt.str "-O%d: %s" opt))
    [ 0; 1 ]

(* -- the generated programs --------------------------------------- *)

let agrees_at ps prog =
  List.for_all
    (fun p ->
      match
        disagreement ~p ~setup:(Lf_testgen.Gen.simd_prog_setup ~p) prog
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
   a pure [force]) on a small SOD pairlist *)
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

let file_setup () =
  let n, maxp, arrays = nbforce_arrays () in
  fun vm ->
    Vm.bind_scalar vm "k" (VInt 8);
    Vm.bind_global vm "l" (AInt (Nd.of_array example_l));
    Vm.bind_scalar vm "n" (VInt n);
    Vm.bind_scalar vm "maxp" (VInt maxp);
    List.iter (fun (name, a) -> Vm.bind_global vm name (arr_copy a)) arrays;
    Vm.register_func vm "force" force

let t_files () =
  let files = sources "../examples/fortran" @ sources "corpus" in
  checkb "example and corpus files found" (List.length files >= 8);
  let setup = file_setup () in
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
                  match disagreement ~p ~setup prog with
                  | None -> ()
                  | Some what ->
                      Alcotest.failf "%s (%s) at p=%d: %s differs" path form p
                        what)
                [ 1; 4; 8 ])
            progs)
    files

(* -- named cases --------------------------------------------------- *)

let named_p = [ 1; 3; 8; 130 ]

let check_named ?(setup = fun _ -> ()) name src =
  let prog = Parser.program_of_string ("PROGRAM t\n" ^ src ^ "\nEND\n") in
  List.iter
    (fun p ->
      match disagreement ~p ~setup prog with
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
  (* the arguments each run's procedure saw, per call, boxed: the
     reference runs first, then -O0, then -O1 *)
  let runs = ref [] in
  let setup vm =
    let log = ref [] in
    runs := log :: !runs;
    Vm.register_proc vm "probe" (fun _ ~mask args ->
        log :=
          ( Array.to_list mask,
            List.map
              (function
                | Pval.Plural l -> Array.to_list (Frame.values_of_lanes l)
                | v -> [ Pval.lane v 0 ])
              args )
          :: !log)
  in
  check_named ~setup "a procedure receiving masked temporaries"
    "PLURAL REAL x\n\
     x = iproc * 1.5\n\
     WHERE (iproc > 2)\n\
    \  CALL probe(iproc * 2, iproc, x * 1.5, x, -x, iproc > 3, 4)\n\
     ENDWHERE\n\
     CALL probe(iproc * 2, x)";
  let logs = List.map ( ! ) !runs in
  checkb "procedures saw the same calls"
    (List.length logs = 3 * List.length named_p
    && List.for_all (fun l -> l <> []) logs
    &&
    let rec triples = function
      | o1 :: o0 :: r :: rest -> o1 = r && o0 = r && triples rest
      | [] -> true
      | _ -> false
    in
    triples logs)

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
