(* Test entry point: one Alcotest suite per module. *)

let () =
  Alcotest.run "loop-flattening"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("interp", Test_interp.suite);
      ("simplify", Test_simplify.suite);
      ("ast-util", Test_ast_util.suite);
      ("typecheck", Test_typecheck.suite);
      ("analysis", Test_analysis.suite);
      ("depend", Test_depend.suite);
      ("cfg", Test_cfg.suite);
      ("dataflow", Test_dataflow.suite);
      ("lint", Test_lint.suite);
      ("parallel", Test_parallel.suite);
      ("normalize", Test_normalize.suite);
      ("flatten", Test_flatten.suite);
      ("simdize", Test_simdize.suite);
      ("pipeline", Test_pipeline.suite);
      ("simd-vm", Test_simd_vm.suite);
      ("treewalk", Test_treewalk.suite);
      ("opt", Test_opt.suite);
      ("verify", Test_verify.suite);
      ("engines-diff", Test_engines_diff.suite);
      ("vm-trace", Test_vm_trace.suite);
      ("stats", Test_stats.suite);
      ("manifest", Test_manifest.suite);
      ("mimd", Test_mimd.suite);
      ("mimdize", Test_mimdize.suite);
      ("layout", Test_layout.suite);
      ("bounds", Test_bounds.suite);
      ("md", Test_md.suite);
      ("decomp", Test_decomp.suite);
      ("runtime", Test_runtime.suite);
      ("kernels", Test_kernels.suite);
      ("deep", Test_deep.suite);
      ("coalesce", Test_coalesce.suite);
      ("layered", Test_layered.suite);
      ("e2e", Test_e2e.suite);
      ("fuzz", Test_fuzz.suite);
      ("report", Test_report.suite);
      ("progcache", Test_progcache.suite);
      ("lanes", Test_lanes.suite);
    ]
