(* simdfuzz: coverage-guided differential fuzzing of the whole engine.

   Generates and mutates mini-Fortran programs (both the SIMD dialect
   and front-end loop nests), judges each one with the differential
   oracle battery in lib/fuzz — cross-engine/-O/jobs equivalence under
   the IR verifier, stats-registry invariance, pretty-print/parse
   round-trip, flatten/coalesce translation validation — and keeps the
   inputs that light up new coverage (stats counters, lint rules, error
   classes).  Failures are shrunk by delta debugging to a minimal
   reproducer suitable for test/corpus/.

   A campaign is deterministic in --seed: same seed, same budget, same
   corpus, bit-identical report.

   Exit status: 0 when no oracle failed, 1 when any failure was found
   (campaign or replay), 2 on input/usage errors.

   Examples:
     dune exec bin/simdfuzz.exe -- --fuzz 200 --seed 7 --corpus test/corpus
     dune exec bin/simdfuzz.exe -- --replay test/corpus/*.f
     dune exec bin/simdfuzz.exe -- --fuzz 60 --chaos scratch --minimize *)

open Cmdliner
module Fuzz = Lf_fuzz.Fuzz
module Input = Lf_fuzz.Input
module Oracle = Lf_fuzz.Oracle

let err fmt = Fmt.kstr (fun m -> Fmt.epr "simdfuzz: %s@." m) fmt

let load_corpus dir =
  match Sys.readdir dir with
  | exception Sys_error m ->
      err "cannot read corpus directory: %s" m;
      Error ()
  | names ->
      let names =
        List.sort String.compare
          (List.filter
             (fun n -> Filename.check_suffix n ".f")
             (Array.to_list names))
      in
      List.fold_left
        (fun acc n ->
          match acc with
          | Error () -> Error ()
          | Ok inputs -> (
              match Input.of_file (Filename.concat dir n) with
              | Ok i -> Ok (inputs @ [ i ])
              | Error m ->
                  err "%s" m;
                  Error ()))
        (Ok []) names

let print_failure i (f : Fuzz.failure) =
  Fmt.pr "FAIL #%d [%s] %s@." i f.Fuzz.f_oracle f.Fuzz.f_detail;
  Fmt.pr "  input: %d statements@." (Input.stmt_count f.Fuzz.f_input);
  (match f.Fuzz.f_minimized with
  | Some m ->
      Fmt.pr "  minimized to %d statements:@." (Input.stmt_count m);
      Fmt.pr "%s@." (Input.to_string m)
  | None -> Fmt.pr "%s@." (Input.to_string f.Fuzz.f_input))

let write_repros dir (failures : Fuzz.failure list) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i f ->
      let repro = Option.value f.Fuzz.f_minimized ~default:f.Fuzz.f_input in
      let path =
        Filename.concat dir (Fmt.str "repro_%s_%d.f" f.Fuzz.f_oracle i)
      in
      Input.to_file path repro;
      Fmt.pr "  repro written to %s@." path)
    failures

let write_csv path (log : (int * int) list) =
  let oc = open_out path in
  output_string oc "input,coverage\n";
  List.iter (fun (i, c) -> Printf.fprintf oc "%d,%d\n" i c) log;
  close_out oc

let replay_files ~fuel files =
  let failed = ref false and broken = ref false in
  List.iter
    (fun path ->
      match Input.of_file path with
      | Error m ->
          err "%s" m;
          broken := true
      | Ok i -> (
          match (Oracle.run ~fuel i).Oracle.verdict with
          | Oracle.Pass -> Fmt.pr "%s: pass@." path
          | Oracle.Fuel -> Fmt.pr "%s: pass (fuel exhaustion, engine-identical)@." path
          | Oracle.Fail { oracle; detail } ->
              Fmt.pr "%s: FAIL [%s] %s@." path oracle detail;
              failed := true))
    files;
  if !broken then 2 else if !failed then 1 else 0

let dialects_of = function
  | `Both -> [ Input.Simd; Input.Nest ]
  | `Simd -> [ Input.Simd ]
  | `Nest -> [ Input.Nest ]

let run count seed fuel dialect no_mutate minimize corpus chaos replay files
    csv repro_dir =
  let uninstall =
    match chaos with
    | None -> Ok (fun () -> ())
    | Some target -> (
        match Fuzz.install_chaos target with
        | f -> Ok f
        | exception Invalid_argument m ->
            err "%s" m;
            Error ())
  in
  match uninstall with
  | Error () -> 2
  | Ok uninstall ->
      Fun.protect ~finally:uninstall @@ fun () ->
      if replay then
        if files = [] then begin
          err "--replay needs corpus FILE arguments";
          2
        end
        else replay_files ~fuel files
      else if count <= 0 then begin
        err "nothing to do: give --fuzz N or --replay FILE...";
        2
      end
      else begin
        match
          match corpus with None -> Ok [] | Some dir -> load_corpus dir
        with
        | Error () -> 2
        | Ok seeds ->
            Fmt.pr "simdfuzz: seed %d, %d inputs%s, %s%s%s@." seed count
              (match seeds with
              | [] -> ""
              | s -> Fmt.str " + %d corpus seeds" (List.length s))
              (match dialect with
              | `Both -> "dialects simd+nest"
              | `Simd -> "dialect simd"
              | `Nest -> "dialect nest")
              (if no_mutate then ", pure random" else ", coverage-guided")
              (match chaos with
              | Some t -> Fmt.str ", chaos=%s" t
              | None -> "");
            let cfg =
              {
                Fuzz.default_config with
                Fuzz.seed;
                count;
                fuel;
                dialects = dialects_of dialect;
                mutate = not no_mutate;
                minimize;
              }
            in
            let rep = Fuzz.run ~seeds cfg in
            List.iteri (fun i f -> print_failure (i + 1) f) rep.Fuzz.r_failures;
            Option.iter (fun p -> write_csv p rep.Fuzz.r_coverage_log) csv;
            (match repro_dir with
            | Some dir when rep.Fuzz.r_failures <> [] ->
                write_repros dir rep.Fuzz.r_failures
            | _ -> ());
            Fmt.pr
              "simdfuzz: %d oracle runs, %d failures, %d fuel-outs, %d \
               inputs kept, %d coverage keys@."
              rep.Fuzz.r_executed
              (List.length rep.Fuzz.r_failures)
              rep.Fuzz.r_fuel_outs
              (List.length rep.Fuzz.r_corpus)
              rep.Fuzz.r_coverage;
            if rep.Fuzz.r_failures <> [] then 1 else 0
      end

let cmd =
  let count =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"N"
          ~doc:"Run a campaign of $(docv) generated/mutated inputs.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Campaign seed; the whole run (generation, mutation, corpus \
             picks, reduction) is deterministic in it.")
  in
  let fuel =
    Arg.(
      value
      & opt int Oracle.default_fuel
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:
            "Execution-step budget per engine leg; engine-identical \
             exhaustion is the distinct 'fuel' verdict, so infinite GOTO \
             loops fail fast instead of hanging the campaign.")
  in
  let dialect =
    let dialect_conv =
      Arg.enum [ ("both", `Both); ("simd", `Simd); ("nest", `Nest) ]
    in
    Arg.(
      value & opt dialect_conv `Both
      & info [ "dialect" ] ~docv:"D"
          ~doc:
            "Input dialect(s) to generate: $(b,simd) (cross-engine \
             differential legs), $(b,nest) (flatten/coalesce translation \
             validation) or $(b,both).")
  in
  let no_mutate =
    Arg.(
      value & flag
      & info [ "no-mutate" ]
          ~doc:
            "Disable coverage-guided mutation: every input is freshly \
             generated (the pure-random baseline of the EXPERIMENTS \
             study).")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:
            "Shrink every failure to a 1-minimal reproducer by \
             statement/expression-level delta debugging before reporting \
             it.")
  in
  let corpus =
    Arg.(
      value
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Seed the campaign with every *.f input in $(docv) (replayed \
             before generation; their coverage primes the corpus).")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"TARGET"
          ~doc:
            "Fault injection for self-tests: $(b,scratch) makes the \
             optimizer's scratch phase give every buffer-owning site the \
             same group; $(b,oracle) installs a deliberately broken \
             oracle.  The campaign is then expected to find and minimize \
             the planted bug.")
  in
  let replay =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Replay the FILE arguments through the oracle battery and \
             exit (the regression-corpus mode used by dune runtest).")
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Corpus inputs for --replay.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "coverage-csv" ] ~docv:"PATH"
          ~doc:
            "Write the per-input cumulative coverage curve as CSV (the \
             EXPERIMENTS coverage-growth data).")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-repros" ] ~docv:"DIR"
          ~doc:
            "Persist each failure's (minimized) reproducer as a \
             self-contained corpus file in $(docv).")
  in
  Cmd.v
    (Cmd.info "simdfuzz" ~version:"1.0"
       ~doc:
         "coverage-guided differential fuzzing with automatic repro \
          minimization")
    Term.(
      const run $ count $ seed $ fuel $ dialect $ no_mutate $ minimize
      $ corpus $ chaos $ replay $ files $ csv $ repro_dir)

let () = exit (Cmd.eval' cmd)
