(** Run manifests: one jsonlint-clean JSON artifact per VM run, tying a
    result to the exact inputs that produced it — program identity
    (path, MD5, size), engine, [-O] level, jobs, lane count, wall/CPU
    time, the [Metrics] counters and the full [Stats] registry dump.

    The point is auditability of performance claims: a BENCH_*.json
    number or an EXPERIMENTS.md table row can cite the manifest instead
    of relying on CHANGES.md prose to recall which flags were used.
    [of_json] restores every scalar field (the [metrics]/[stats]
    payloads are carried verbatim), so manifests round-trip — the test
    suite checks [of_json (to_json m) = m]. *)

type t = {
  schema : int;
  program : string;  (** source path as given on the command line *)
  program_md5 : string;  (** MD5 of the source bytes, hex *)
  program_bytes : int;
  engine : string;  (** "compiled" | "seq", or "tree-walk" | "parallel",
                        kept names that run the compiled engine *)
  opt : int;  (** [-O] level (0 when the engine ignores it) *)
  jobs : int;  (** the jobs a "parallel" run names; 1 otherwise *)
  p : int;  (** lane count *)
  wall_ns : int64;  (** monotonic wall time of the run *)
  cpu_s : float;  (** [Sys.time] delta of the run *)
  metrics : Json.t;  (** [Metrics.to_json] payload *)
  stats : Json.t;  (** [Stats.to_json] payload *)
}

let schema_version = 1

let make ~program ~source ~engine ~opt ~jobs ~p ~wall_ns ~cpu_s ~metrics
    ~stats =
  {
    schema = schema_version;
    program;
    program_md5 = Digest.to_hex (Digest.string source);
    program_bytes = String.length source;
    engine;
    opt;
    jobs;
    p;
    wall_ns;
    cpu_s;
    metrics;
    stats;
  }

let to_json m =
  Json.Obj
    [
      ("schema", Json.Int m.schema);
      ("program", Json.Str m.program);
      ("program_md5", Json.Str m.program_md5);
      ("program_bytes", Json.Int m.program_bytes);
      ("engine", Json.Str m.engine);
      ("opt", Json.Int m.opt);
      ("jobs", Json.Int m.jobs);
      ("p", Json.Int m.p);
      ("wall_ns", Json.Int (Int64.to_int m.wall_ns));
      ("cpu_s", Json.Float m.cpu_s);
      ("metrics", m.metrics);
      ("stats", m.stats);
    ]

let of_json (j : Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "manifest: missing field %S" name)
  in
  let int name =
    let* v = field name in
    match v with
    | Json.Int n -> Ok n
    | _ -> Error (Printf.sprintf "manifest: field %S is not an integer" name)
  in
  let str name =
    let* v = field name in
    match v with
    | Json.Str s -> Ok s
    | _ -> Error (Printf.sprintf "manifest: field %S is not a string" name)
  in
  let num name =
    let* v = field name in
    match v with
    | Json.Float f -> Ok f
    | Json.Int n -> Ok (float_of_int n)
    | _ -> Error (Printf.sprintf "manifest: field %S is not a number" name)
  in
  let* schema = int "schema" in
  if schema <> schema_version then
    Error (Printf.sprintf "manifest: unsupported schema version %d" schema)
  else
    let* program = str "program" in
    let* program_md5 = str "program_md5" in
    let* program_bytes = int "program_bytes" in
    let* engine = str "engine" in
    let* opt = int "opt" in
    let* jobs = int "jobs" in
    let* p = int "p" in
    let* wall_ns = int "wall_ns" in
    let* cpu_s = num "cpu_s" in
    let* metrics = field "metrics" in
    let* stats = field "stats" in
    Ok
      {
        schema;
        program;
        program_md5;
        program_bytes;
        engine;
        opt;
        jobs;
        p;
        wall_ns = Int64.of_int wall_ns;
        cpu_s;
        metrics;
        stats;
      }

let write path m =
  let oc = open_out path in
  Json.to_channel oc (to_json m);
  output_char oc '\n';
  close_out oc
