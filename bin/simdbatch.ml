(* simdbatch: execute a JSON work list of (program × p × engine × -O ×
   jobs) items on the simulated SIMD machine through the compiled-program
   cache, streaming one manifest-style JSONL record per item in
   work-list order.

   Items sharing (source bytes, -O, verify, p) pay the front end once
   and run warm afterwards; items under different keys run concurrently
   on the host's cores (one at a time with --stats or --stats-json).
   "repeat": N re-runs an item N times, so a repeat grid demonstrates
   the warm path inside a single item too.  A failing item reports
   ("status": "error") and the batch continues; the exit status is 1 iff
   any item failed, 124 for a malformed work list, an unusable
   --artifacts directory or CLI usage.

   Examples:
     dune exec bin/simdbatch.exe -- jobs.json
     dune exec bin/simdbatch.exe -- --jsonl out.jsonl --artifacts art/ \
       --stats-json stats.json jobs.json *)

open Cmdliner
module Batch = Lf_simd.Batch
module Src = Lf_kernels.Nbforce_src

(* The NBFORCE workload is built once, before any item runs, and only
   read afterwards: items may run on any domain. *)
let nbforce_setup atoms items =
  let workload =
    if List.exists (fun it -> it.Batch.bi_kernel = Some "nbforce") items then
      let mol = Lf_md.Workload.sod ~n:atoms ~seed:13 () in
      Some (mol, Lf_md.Workload.pairlist mol ~cutoff:7.0)
    else None
  in
  fun (it : Batch.item) vm ->
    match (it.Batch.bi_kernel, workload) with
    | None, _ -> ()
    | Some "nbforce", Some (mol, pl) ->
        let n, maxp = Src.params pl in
        Lf_simd.Vm.register_func vm "force" (Src.force_fn mol);
        Lf_simd.Vm.register_proc vm "onef" (Src.onef_simd mol);
        Lf_simd.Vm.bind_scalar vm "n" (Lf_lang.Values.VInt n);
        Lf_simd.Vm.bind_scalar vm "maxp" (Lf_lang.Values.VInt maxp);
        Src.bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
            Lf_simd.Vm.bind_global vm name a)
    | Some k, _ -> raise (Batch.Bad_jobs (Printf.sprintf "unknown kernel %S" k))

let write_json path json =
  let oc = open_out path in
  output_string oc (Lf_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

let run jobs_path jsonl artifacts atoms stats stats_json =
  try
    if stats || Option.is_some stats_json then Lf_obs.Stats.enable ();
    let items = Batch.load jobs_path in
    let oc, close =
      match jsonl with
      | None | Some "-" -> (stdout, fun () -> flush stdout)
      | Some f ->
          let oc = open_out f in
          (oc, fun () -> close_out oc)
    in
    let emit j =
      output_string oc (Lf_obs.Json.to_string j);
      output_char oc '\n'
    in
    let any_failed =
      Fun.protect ~finally:close (fun () ->
          Batch.run ~setup:(nbforce_setup atoms items) ~emit ?artifacts items)
    in
    if stats then Fmt.pr "%a" Lf_obs.Stats.pp ();
    Option.iter (fun f -> write_json f (Lf_obs.Stats.to_json ())) stats_json;
    if any_failed then 1 else 0
  with
  | Batch.Bad_jobs msg ->
      Fmt.epr "simdbatch: %s@." msg;
      124
  | Sys_error msg ->
      Fmt.epr "simdbatch: %s@." msg;
      124

let cmd =
  let jobs_path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOBS.json"
          ~doc:
            "Work list: a JSON array (or {\"jobs\": [...]}) of items; see \
             the library documentation for the item schema.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Stream one JSON record per item to $(docv) ('-' or omitted: \
             stdout).")
  in
  let artifacts =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "Write per-item deterministic artifacts \
             ($(i,item-NNN.metrics.json), $(i,item-NNN.state.txt)) into \
             $(docv), creating it if needed.")
  in
  let atoms =
    Cli.atoms ~doc:"Number of atoms for items with \"kernel\": \"nbforce\"."
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Enable the engine telemetry registry for the whole batch and \
             print it afterwards (includes the cache.hits / cache.misses \
             counters).")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Enable the telemetry registry and write its dump as JSON to \
             $(docv) after the batch.")
  in
  Cmd.v
    (Cmd.info "simdbatch" ~version:"1.0"
       ~doc:"run a JSON work list on the simulated SIMD machine")
    Term.(
      const run $ jobs_path $ jsonl $ artifacts $ atoms $ stats $ stats_json)

let () = exit (Cmd.eval' cmd)
