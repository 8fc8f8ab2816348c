(** Robustness properties: the front end never escapes its own exception
    vocabulary, the simplifier is idempotent, and the whole pipeline
    preserves semantics on random programs. *)

open Helpers
open Lf_lang

(* random byte soup: the lexer/parser may reject, but only with their own
   exceptions *)
let t_frontend_total =
  qcheck_case ~count:1000 "front end rejects garbage gracefully"
    QCheck.Gen.(string_size (0 -- 60))
    (fun src ->
      match Parser.program_of_string src with
      | _ -> true
      | exception (Errors.Lex_error _ | Errors.Parse_error _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "escaped exception %s on %S"
            (Printexc.to_string e) src)

(* printable soup that looks more like Fortran *)
let fortranish =
  QCheck.Gen.(
    string_size (0 -- 80)
      ~gen:
        (oneofl
           [ 'a'; 'i'; 'x'; '1'; '2'; '('; ')'; '='; '+'; '*'; ','; ' ';
             '\n'; 'D'; 'O'; 'E'; 'N'; 'I'; 'F'; '.'; ':'; '<'; '-' ]))

let t_frontend_fortranish =
  qcheck_case ~count:1000 "front end rejects near-Fortran gracefully"
    fortranish
    (fun src ->
      match Parser.program_of_string src with
      | _ -> true
      | exception (Errors.Lex_error _ | Errors.Parse_error _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "escaped exception %s on %S"
            (Printexc.to_string e) src)

let t_simplify_idempotent =
  qcheck_case ~count:500 "simplify is idempotent" Gen.expr (fun e ->
      let s1 = Simplify.simplify e in
      let s2 = Simplify.simplify s1 in
      s1 = s2
      || QCheck.Test.fail_reportf "%s -> %s -> %s" (Pretty.expr_to_string e)
           (Pretty.expr_to_string s1) (Pretty.expr_to_string s2))

let t_typecheck_total =
  qcheck_case ~count:300 "typechecker is total on random ASTs" Gen.block
    (fun b ->
      match Typecheck.check_block_standalone b with
      | _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "typechecker raised %s on@.%s"
            (Printexc.to_string e) (Pretty.block_to_string b))

(* full pipeline property: program-level flattening preserves semantics *)
let t_pipeline_preserves =
  qcheck_case ~count:150 "pipeline flattening preserves program semantics"
    Gen.exec_nest_gen
    (fun en ->
      let prog = Ast.program "fuzz" en.Gen.src_block in
      let opts =
        {
          Lf_core.Pipeline.default_options with
          assume_inner_nonempty = en.Gen.inner_nonempty;
          trusted_parallel = true;
        }
      in
      match Lf_core.Pipeline.flatten_program ~opts prog with
      | Error _ -> true  (* e.g. no perfect nest in the generated block *)
      | Ok o ->
          let run p = Interp.run ~setup:(Gen.exec_setup en) p in
          let c1 = run prog and c2 = run o.Lf_core.Pipeline.program in
          Env.equal_on Gen.exec_observables c1.Interp.env c2.Interp.env
          || QCheck.Test.fail_reportf "diverged on@.%s"
               (Pretty.program_to_string o.Lf_core.Pipeline.program))

let suite =
  [
    t_frontend_total;
    t_frontend_fortranish;
    t_simplify_idempotent;
    t_typecheck_total;
    t_pipeline_preserves;
  ]

(* SIMD end-to-end property: for random nests, both SIMD derivations
   (naive and flattened), run on the lockstep VM, agree with the
   sequential interpreter on every observable *)
let vm_setup (en : Gen.exec_nest) p_lanes vm =
  let maxl = Array.fold_left max 1 en.Gen.l in
  Lf_simd.Vm.bind_scalar vm "p" (Values.VInt p_lanes);
  Lf_simd.Vm.bind_scalar vm "k" (Values.VInt en.Gen.k);
  Lf_simd.Vm.bind_scalar vm "acc" (Values.VInt 0);
  Lf_simd.Vm.bind_global vm "l" (Values.AInt (Nd.of_array en.Gen.l));
  Lf_simd.Vm.bind_global vm "x"
    (Values.AInt (Nd.create [| en.Gen.k; maxl |] 0))

let observables_match ?(with_acc = true) vm seq_ctx =
  let x_vm = Values.VArr (Lf_simd.Vm.read_global vm "x") in
  let x_seq = Env.find seq_ctx.Interp.env "x" in
  Values.equal_value x_vm x_seq
  && (not with_acc
     ||
     match Lf_simd.Vm.find_opt vm "acc" with
     | Some (Lf_simd.Vm.VScalar r) ->
         Values.equal_value !r (Env.find seq_ctx.Interp.env "acc")
     | _ -> false)

(* the naive SIMD baseline has no reduction lowering; restrict it to
   nests whose only observable is the array *)
let array_only (en : Gen.exec_nest) =
  not (List.mem "acc" (Ast_util.assigned_vars en.Gen.src_block))

(* classify the accumulator: absent, a true sum reduction (lowered by the
   pipeline), or a carried scalar that is also read — the latter is not
   parallelizable at all, and forcing it with trusted_parallel would
   (correctly) diverge *)
let acc_status (en : Gen.exec_nest) =
  if array_only en then `None
  else
    let body =
      List.concat_map
        (function
          | Ast.SDo (_, b) | Ast.SForall (_, b) | Ast.SWhile (_, b)
          | Ast.SDoWhile (b, _) ->
              b
          | _ -> [])
        en.Gen.src_block
    in
    if
      List.mem "acc"
        (Lf_core.Simdize.sum_reduction_candidates ~exclude:[] body)
    then `Reduction
    else `Carried

let simd_gen =
  QCheck.Gen.(
    let* en = Gen.exec_nest_gen in
    let* p = oneofl [ 1; 2; 4 ] in
    (* pad K to a multiple of the lane count for the partitioners *)
    let k = ((en.Gen.k + p - 1) / p) * p in
    let l =
      Array.init k (fun i ->
          if i < Array.length en.Gen.l then en.Gen.l.(i) else 1)
    in
    return ({ en with Gen.k = k; l }, p))

let prop_simd_roundtrip decomp naive ((en : Gen.exec_nest), p_lanes) =
  let status = acc_status en in
  if status = `Carried || (naive && status <> `None) then true
  else begin
    let prog = Ast.program "fuzz" en.Gen.src_block in
    let opts =
      {
        Lf_core.Pipeline.default_options with
        assume_inner_nonempty = en.Gen.inner_nonempty;
        trusted_parallel = true;
        target = Lf_core.Pipeline.Simd { decomp; p = Ast.EInt p_lanes };
      }
    in
    let derived =
      if naive then Lf_core.Pipeline.simdize_program_naive ~opts prog
      else Lf_core.Pipeline.flatten_program ~opts prog
    in
    match derived with
    | Error _ -> true  (* e.g. WHILE outer loop for the SIMD target *)
    | Ok o -> (
        let seq = Interp.run_block ~setup:(Gen.exec_setup en) en.Gen.src_block in
        match
          Lf_simd.Vm.run ~p:p_lanes ~setup:(vm_setup en p_lanes)
            o.Lf_core.Pipeline.program
        with
        | vm ->
            (* acc is comparable whenever the reduction lowering ran,
               i.e. on the flattened paths *)
            let with_acc = (not naive) && status = `Reduction in
            observables_match ~with_acc vm seq
            || QCheck.Test.fail_reportf "diverged on@.%s"
                 (Pretty.program_to_string o.Lf_core.Pipeline.program)
        | exception e ->
            QCheck.Test.fail_reportf "VM raised %s on@.%s"
              (Printexc.to_string e)
              (Pretty.program_to_string o.Lf_core.Pipeline.program))
  end

(* differential property: the engine and the boxed reference machine
   are bit-identical — same final variable table, same metrics counters,
   and on the error path the same runtime error and partial state *)
let prop_engines_agree decomp naive ((en : Gen.exec_nest), p_lanes) =
  (* unlike the roundtrip property there is no need to exclude carried
     scalars etc. here: whatever program comes out, both machines must
     treat it identically — including identical runtime errors *)
  begin
    let prog = Ast.program "fuzz" en.Gen.src_block in
    let opts =
      {
        Lf_core.Pipeline.default_options with
        assume_inner_nonempty = en.Gen.inner_nonempty;
        trusted_parallel = true;
        target = Lf_core.Pipeline.Simd { decomp; p = Ast.EInt p_lanes };
      }
    in
    let derived =
      if naive then Lf_core.Pipeline.simdize_program_naive ~opts prog
      else Lf_core.Pipeline.flatten_program ~opts prog
    in
    match derived with
    | Error _ -> true
    | Ok o -> (
        let simd = o.Lf_core.Pipeline.program in
        let setup = vm_setup en p_lanes in
        match
          Lf_testgen.Ref_vm.disagreement
            (Lf_testgen.Ref_vm.run ~p:p_lanes ~setup simd)
            (Lf_testgen.Ref_vm.compiled ~p:p_lanes ~setup simd)
        with
        | None -> true
        | Some what ->
            QCheck.Test.fail_reportf "%s differs from the reference on@.%s"
              what
              (Pretty.program_to_string simd))
  end

let t_engines_agree_flat =
  qcheck_case ~count:150 "differential: engines agree (flattened programs)"
    simd_gen
    (prop_engines_agree Lf_core.Simdize.Block false)

let t_engines_agree_naive =
  qcheck_case ~count:150 "differential: engines agree (naive SIMD programs)"
    simd_gen
    (prop_engines_agree Lf_core.Simdize.Cyclic true)

let t_simd_flat_block =
  qcheck_case ~count:100 "random nests: flatten+SIMDize (block) on the VM"
    simd_gen
    (prop_simd_roundtrip Lf_core.Simdize.Block false)

let t_simd_flat_cyclic =
  qcheck_case ~count:100 "random nests: flatten+SIMDize (cyclic) on the VM"
    simd_gen
    (prop_simd_roundtrip Lf_core.Simdize.Cyclic false)

let t_simd_naive =
  qcheck_case ~count:100 "random nests: naive SIMDize on the VM" simd_gen
    (prop_simd_roundtrip Lf_core.Simdize.Cyclic true)

let suite =
  suite
  @ [
      t_simd_flat_block;
      t_simd_flat_cyclic;
      t_simd_naive;
      t_engines_agree_flat;
      t_engines_agree_naive;
    ]

(* ------------------------------------------------------------------ *)
(* The lf_fuzz subsystem itself: oracle battery, campaign driver,      *)
(* reducer, fault injection and the persisted regression corpus        *)
(* ------------------------------------------------------------------ *)

module Input = Lf_fuzz.Input
module Oracle = Lf_fuzz.Oracle
module Fuzz = Lf_fuzz.Fuzz
module Reduce = Lf_fuzz.Reduce

let verdict_name = function
  | Oracle.Pass -> "pass"
  | Oracle.Fuel -> "fuel"
  | Oracle.Fail { oracle; detail } -> Fmt.str "FAIL [%s] %s" oracle detail

let contains_sub = Astring_contains.contains

(* every checked-in reproducer must replay clean: these are minimized
   witnesses of fixed bugs, so a Fail here is a regression *)
let t_corpus_replay =
  case "regression corpus replays clean" (fun () ->
      let files =
        Sys.readdir "corpus" |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".f")
        |> List.sort compare
      in
      checkb "corpus has the seeded reproducers" (List.length files >= 4);
      List.iter
        (fun f ->
          match Input.of_file (Filename.concat "corpus" f) with
          | Error m -> Alcotest.failf "%s failed to parse: %s" f m
          | Ok i -> (
              match (Oracle.run i).Oracle.verdict with
              | Oracle.Pass | Oracle.Fuel -> ()
              | Oracle.Fail _ as v ->
                  Alcotest.failf "%s regressed: %s" f (verdict_name v)))
        files)

(* a campaign is a pure function of its seed: same seed, same report *)
let t_campaign_deterministic =
  case "campaign is deterministic for a fixed seed" (fun () ->
      let cfg = { Fuzz.default_config with seed = 11; count = 40 } in
      let digest (r : Fuzz.report) =
        ( r.Fuzz.r_executed,
          r.Fuzz.r_coverage,
          r.Fuzz.r_fuel_outs,
          r.Fuzz.r_coverage_log,
          List.map Input.to_string r.Fuzz.r_corpus,
          List.map
            (fun f -> (f.Fuzz.f_oracle, f.Fuzz.f_detail))
            r.Fuzz.r_failures )
      in
      let r1 = digest (Fuzz.run cfg) and r2 = digest (Fuzz.run cfg) in
      checkb "identical reports" (r1 = r2);
      let _, cov, _, log, corpus, _ = r1 in
      checkb "campaign accumulated coverage" (cov > 0);
      checkb "campaign kept coverage-increasing inputs" (corpus <> []);
      checkb "coverage log covers every step" (List.length log = 40))

(* the ISSUE's acceptance test: with a deliberately broken optimizer
   phase the campaign finds a failure and the reducer shrinks the
   reproducer to at most 10 statements *)
let t_chaos_phase_found_and_minimized =
  case "broken optimizer phase is found and minimized" (fun () ->
      let uninstall = Fuzz.install_chaos "scratch" in
      Fun.protect ~finally:uninstall (fun () ->
          let cfg =
            {
              Fuzz.default_config with
              seed = 7;
              count = 60;
              minimize = true;
              dialects = [ Input.Simd ];
            }
          in
          let r = Fuzz.run cfg in
          let hits =
            List.filter (fun f -> f.Fuzz.f_oracle = "verify-ir")
              r.Fuzz.r_failures
          in
          checkb "the mis-annotation was caught within 60 inputs"
            (hits <> []);
          (* without the verifier the collapsed groups are a wrong
             answer: a * b and a - b share one buffer *)
          let prog =
            parse_program
              "PROGRAM t\n  PLURAL INTEGER a, b, r\n  a = iproc\n\
              \  b = iproc + 1\n  r = a * b + (a - b)\nEND"
          in
          checkb "the unverified engine departs from the reference"
            (Option.is_some
               (Lf_testgen.Ref_vm.disagreement
                  (Lf_testgen.Ref_vm.run ~p:4 prog)
                  (Lf_testgen.Ref_vm.compiled ~opt:1 ~p:4 prog)));
          List.iter
            (fun f ->
              match f.Fuzz.f_minimized with
              | None -> Alcotest.fail "failure was not minimized"
              | Some m ->
                  let n = Input.stmt_count m in
                  checkb
                    (Fmt.str "minimized to <= 10 statements (got %d)" n)
                    (n <= 10))
            hits);
      (* with the fault removed the same campaign must come back clean *)
      let r' =
        Fuzz.run
          {
            Fuzz.default_config with
            seed = 7;
            count = 60;
            dialects = [ Input.Simd ];
          }
      in
      checkb "clean campaign after uninstalling the fault"
        (r'.Fuzz.r_failures = []))

(* same discipline for a broken oracle: a bad verdict — even from a
   deliberately wrong oracle — is reported and minimized normally *)
let t_chaos_oracle_found_and_minimized =
  case "broken oracle verdicts are caught and minimized" (fun () ->
      let uninstall = Fuzz.install_chaos "oracle" in
      Fun.protect ~finally:uninstall (fun () ->
          let cfg =
            {
              Fuzz.default_config with
              seed = 7;
              count = 60;
              minimize = true;
            }
          in
          let r = Fuzz.run cfg in
          let hits =
            List.filter (fun f -> f.Fuzz.f_oracle = "chaos-oracle")
              r.Fuzz.r_failures
          in
          checkb "the broken oracle fired" (hits <> []);
          List.iter
            (fun f ->
              match f.Fuzz.f_minimized with
              | None -> Alcotest.fail "failure was not minimized"
              | Some m ->
                  checkb "shrunk to a bare WHERE skeleton"
                    (Input.stmt_count m <= 2);
                  checkb "the minimized repro still has the WHERE"
                    (match Fuzz.broken_where_oracle m with
                    | Oracle.Fail _ -> true
                    | _ -> false))
            hits))

(* only the scratch phase carries a planted fault: other phase names,
   including the deleted "fullmask", are unknown targets *)
let t_chaos_unknown_target =
  case "unknown chaos targets are rejected" (fun () ->
      List.iter
        (fun target ->
          Alcotest.check_raises "invalid_arg"
            (Invalid_argument ("unknown chaos target: " ^ target)) (fun () ->
              let _uninstall = Fuzz.install_chaos target in
              ()))
        [ "nonsense"; "fullmask"; "fuse"; "range" ])

(* a diverging input must yield the distinct Fuel verdict, not a
   failure: non-termination of a random program is not a bug finding *)
let t_fuel_guard =
  case "diverging inputs get the Fuel verdict" (fun () ->
      let src =
        "! simdfuzz dialect=nest\n\
         PROGRAM spin\n\
         10 CONTINUE\n\
         acc = acc + 1\n\
         GOTO 10\n\
         END\n"
      in
      match Input.of_string src with
      | Error m -> Alcotest.fail m
      | Ok i -> (
          match (Oracle.run ~fuel:2_000 i).Oracle.verdict with
          | Oracle.Fuel -> ()
          | v -> Alcotest.failf "expected Fuel, got %s" (verdict_name v)))

(* inputs survive the print/parse trip through the corpus format *)
let t_input_roundtrip =
  case "corpus serialization round-trips dialect and program" (fun () ->
      let rand = Random.State.make [| 3 |] in
      List.iter
        (fun d ->
          for _ = 1 to 20 do
            let i = Fuzz.fresh_input rand d in
            match Input.of_string (Input.to_string i) with
            | Error m -> Alcotest.fail m
            | Ok i' ->
                checkb "dialect preserved" (i'.Input.dialect = d);
                checks "program preserved"
                  (Pretty.program_to_string i.Input.prog)
                  (Pretty.program_to_string i'.Input.prog)
          done)
        [ Input.Simd; Input.Nest ])

(* the reducer only ever shrinks, and its result still satisfies the
   caller's predicate *)
let t_reducer_shrinks =
  case "reducer output is smaller and still failing" (fun () ->
      let rand = Random.State.make [| 5 |] in
      for _ = 1 to 15 do
        let i = Fuzz.fresh_input rand Input.Simd in
        (* an artificial predicate: program mentions iproc at all *)
        let still_fails i' = contains_sub (Input.to_string i') "iproc" in
        if still_fails i then begin
          let m = Reduce.minimize ~still_fails i in
          checkb "still satisfies the predicate" (still_fails m);
          checkb "did not grow" (Input.stmt_count m <= Input.stmt_count i)
        end
      done)

(* the dune fuzz-smoke rules ran the chaos campaigns through the real
   CLI before this binary started; their captured transcripts must show
   the failures being found and shrunk *)
let t_chaos_cli_transcript =
  case "chaos CLI transcript shows find + minimize" (fun () ->
      let ic = open_in "fuzz_chaos.txt" in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let mem = contains_sub s in
      checkb "a chaos-oracle failure was reported" (mem "[chaos-oracle]");
      checkb "the reducer ran" (mem "minimized to");
      checkb "the summary line is present" (mem "simdfuzz:");
      let s =
        In_channel.with_open_bin "fuzz_chaos_scratch.txt" In_channel.input_all
      in
      let mem = contains_sub s in
      checkb "the scratch fault was caught by the verifier"
        (mem "[verify-ir]" && mem "IR004");
      checkb "the reducer ran on it" (mem "minimized to"))

let suite =
  suite
  @ [
      t_corpus_replay;
      t_campaign_deterministic;
      t_chaos_phase_found_and_minimized;
      t_chaos_oracle_found_and_minimized;
      t_chaos_unknown_target;
      t_fuel_guard;
      t_input_roundtrip;
      t_reducer_shrinks;
      t_chaos_cli_transcript;
    ]
