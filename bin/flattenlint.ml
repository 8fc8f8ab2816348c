(* flattenlint: static flatten-safety checking with located diagnostics.

   Lints pseudo-Fortran programs against the paper's flattening
   preconditions (applicability, §6 safety of the receiving loop, §4
   phase purity) and the plural-race rules for FORALL/WHERE, using the
   dataflow framework in lib/analysis.  Prints human-readable located
   diagnostics by default, or a machine-readable JSON report with --json.

   Exit status: 0 when every input is lint-clean (no errors; warnings are
   allowed), 1 when any input has lint errors, 2 when an input fails to
   parse, 124 when an input cannot be read.

   Examples:
     dune exec bin/flattenlint.exe -- examples/fortran/example.f
     dune exec bin/flattenlint.exe -- --json --kernel nbforce
     dune exec bin/flattenlint.exe -- --explain LF004 *)

open Cmdliner
module Lint = Lf_analysis.Lint
module Json = Lf_obs.Json

(* One input to lint: a file path or a built-in kernel source. *)
type input = {
  i_name : string;
  i_source : string;
}

let diag_json (d : Lint.diag) : Json.t =
  Json.Obj
    ([
       ("rule", Json.Str d.Lint.d_rule);
       ("severity", Json.Str (Lint.severity_to_string d.Lint.d_severity));
     ]
    @ (match d.Lint.d_loc with
      | Some p ->
          [
            ("line", Json.Int p.Lf_lang.Errors.line);
            ("col", Json.Int p.Lf_lang.Errors.col);
          ]
      | None -> [])
    @ [ ("message", Json.Str d.Lint.d_msg) ])

let report_json name (r : Lint.report) : Json.t =
  Json.Obj
    [
      ("file", Json.Str name);
      ("applicable", Json.Bool r.Lint.applicable);
      ("safe", Json.Bool r.Lint.safe);
      ("errors", Json.Int (List.length (Lint.errors r)));
      ("diagnostics", Json.List (List.map diag_json r.Lint.diags));
    ]

let parse_failure_json name msg : Json.t =
  Json.Obj
    [
      ("file", Json.Str name);
      ("safe", Json.Bool false);
      ("parse_error", Json.Str msg);
    ]

let run files kernel json pure_subs impure_funcs explain rules quiet =
  if rules then begin
    Fmt.pr "Flatten-safety rules (LF, program-level):@.";
    List.iter (fun (r, doc) -> Fmt.pr "  %s  %s@." r doc) Lint.rules;
    Fmt.pr "@.IR-verifier rules (IR, optimizer-level; see simdsim \
            --verify-ir):@.";
    List.iter
      (fun (r, doc) -> Fmt.pr "  %s  %s@." r doc)
      Lf_simd.Verify.rules;
    0
  end
  else
  match explain with
  | Some rule ->
      let doc =
        match Lf_simd.Verify.rule_doc rule with
        | Some doc -> doc
        | None -> Lint.rule_doc rule
      in
      Fmt.pr "%s: %s@." rule doc;
      0
  | None -> (
      let inputs =
        List.map
          (fun f ->
            {
              i_name = f;
              i_source = Input_file.read_or_exit ~tool:"flattenlint" f;
            })
          files
        @
        match kernel with
        | Some `Nbforce ->
            [
              {
                i_name = "<kernel:nbforce>";
                i_source = Lf_kernels.Nbforce_src.source;
              };
            ]
        | None -> []
      in
      if inputs = [] then begin
        Fmt.epr "flattenlint: no input (give FILE arguments or --kernel)@.";
        2
      end
      else
        let lint input =
          match Lf_lang.Parser.program_of_string input.i_source with
          | exception e -> Error (Lf_lang.Errors.to_message e)
          | prog ->
              Ok
                (Lint.check_program ~pure_subroutines:pure_subs
                   ~impure_funcs prog)
        in
        let results = List.map (fun i -> (i, lint i)) inputs in
        let parse_failed =
          List.exists (fun (_, r) -> Result.is_error r) results
        in
        let lint_failed =
          List.exists
            (fun (_, r) ->
              match r with Ok rep -> not rep.Lint.safe | Error _ -> false)
            results
        in
        if json then begin
          let reports =
            List.map
              (fun (i, r) ->
                match r with
                | Ok rep -> report_json i.i_name rep
                | Error msg -> parse_failure_json i.i_name msg)
              results
          in
          Fmt.pr "%s@."
            (Json.to_string
               (Json.Obj
                  [
                    ("ok", Json.Bool (not (parse_failed || lint_failed)));
                    ("reports", Json.List reports);
                  ]))
        end
        else
          List.iter
            (fun (i, r) ->
              match r with
              | Error msg -> Fmt.epr "%s: %s@." i.i_name msg
              | Ok rep ->
                  List.iter
                    (fun d ->
                      Fmt.pr "%a"
                        (Lint.pp_diag_with_context ~file:i.i_name
                           ~source:i.i_source ())
                        d)
                    rep.Lint.diags;
                  if not quiet then
                    Fmt.pr "%s: %s%s@." i.i_name
                      (if rep.Lint.safe then "safe to flatten"
                       else "NOT safe to flatten")
                      (if rep.Lint.applicable then ""
                       else " (flattening not applicable)"))
            results;
        if parse_failed then 2 else if lint_failed then 1 else 0)

let cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Programs to lint ('-' for stdin).")
  in
  let kernel =
    let kernel_conv = Arg.enum [ ("nbforce", `Nbforce) ] in
    Arg.(
      value
      & opt (some kernel_conv) None
      & info [ "kernel" ] ~docv:"KERNEL"
          ~doc:
            "Also lint a built-in kernel source: $(b,nbforce) is the \
             paper's Figure 13 NBFORCE nest.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit a machine-readable JSON report instead of text.")
  in
  let pure_subs =
    Arg.(
      value
      & opt (list string) []
      & info [ "pure-subroutines" ]
          ~doc:"Subroutines certified free of cross-iteration effects.")
  in
  let impure_funcs =
    Arg.(
      value
      & opt (list string) []
      & info [ "impure-funcs" ]
          ~doc:"Functions known to have side effects.")
  in
  let explain =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"RULE"
          ~doc:
            "Print the one-line description of a rule id (LF or IR \
             family) and exit.")
  in
  let rules =
    Arg.(
      value & flag
      & info [ "rules" ]
          ~doc:
            "List every rule id with its one-line description — the LF \
             flatten-safety family and the IR verifier family — and \
             exit.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress the per-file summary line.")
  in
  Cmd.v
    (Cmd.info "flattenlint" ~version:"1.0"
       ~doc:"static safety checking for loop flattening")
    Term.(
      const run $ files $ kernel $ json $ pure_subs $ impure_funcs $ explain
      $ rules $ quiet)

let () = exit (Cmd.eval' cmd)
