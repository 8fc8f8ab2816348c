(* jsonlint: validate that files parse as JSON — or, with --jsonl, as one
   JSON value per non-empty line.  The smoke matrix
   (examples/fortran/smoke.t) uses this to check every file the
   observability layer emits (metrics dumps, JSONL traces, occupancy
   timelines, Chrome trace events) without external JSON tooling.

   --cmp-ignoring KEY[,KEY...] A B compares two JSON files structurally
   after deleting the named keys from every object at any depth — how
   the smoke matrix asserts that metrics/stats dumps from different
   engine configurations agree on everything except their provenance
   ("run") and scheduler-dependent ("volatile") parts.  Exit 1 when the
   stripped values differ.

   --assert-positive PATH FILE walks the /-separated object path in
   FILE and requires the value there to be a number > 0 — how the
   smoke matrix asserts that a --stats-json dump recorded warm
   cache traffic (e.g. --assert-positive opt/cache.hits stats.json).

   An unreadable or invalid file is reported on stderr and makes the
   exit status 1.

   Usage: jsonlint [--jsonl] FILE...
          jsonlint --cmp-ignoring KEYS FILE1 FILE2
          jsonlint --assert-positive PATH FILE                          *)

(* The single-file modes: an unreadable or invalid file is a failure. *)
let parse_or_exit path =
  match Result.bind (Input_file.read path) Lf_obs.Json.parse with
  | Ok j -> j
  | Error msg ->
      Printf.eprintf "jsonlint: %s: %s\n" path msg;
      exit 1

let rec strip_keys keys (j : Lf_obs.Json.t) : Lf_obs.Json.t =
  match j with
  | Lf_obs.Json.Obj fields ->
      Lf_obs.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k keys then None else Some (k, strip_keys keys v))
           fields)
  | Lf_obs.Json.List items ->
      Lf_obs.Json.List (List.map (strip_keys keys) items)
  | other -> other

let cmp_ignoring keys a b =
  let keys = String.split_on_char ',' keys in
  let ja = strip_keys keys (parse_or_exit a) in
  let jb = strip_keys keys (parse_or_exit b) in
  (* canonicalize field order so dumps that agree on content but not on
     emission order still compare equal *)
  let rec canon (j : Lf_obs.Json.t) : Lf_obs.Json.t =
    match j with
    | Lf_obs.Json.Obj fields ->
        Lf_obs.Json.Obj
          (List.map (fun (k, v) -> (k, canon v)) fields
          |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2))
    | Lf_obs.Json.List items -> Lf_obs.Json.List (List.map canon items)
    | other -> other
  in
  if Lf_obs.Json.to_string (canon ja) = Lf_obs.Json.to_string (canon jb)
  then begin
    Printf.printf "jsonlint: %s == %s (ignoring %s)\n" a b
      (String.concat "," keys);
    exit 0
  end
  else begin
    Printf.eprintf "jsonlint: %s and %s differ outside ignored keys %s\n" a b
      (String.concat "," keys);
    exit 1
  end

let assert_positive path_expr file =
  let j = parse_or_exit file in
  let keys = String.split_on_char '/' path_expr in
  let v =
    List.fold_left
      (fun j k ->
        match Lf_obs.Json.member k j with
        | Some v -> v
        | None ->
            Printf.eprintf "jsonlint: %s: no value at %s (missing %S)\n" file
              path_expr k;
            exit 1)
      j keys
  in
  let ok =
    match v with
    | Lf_obs.Json.Int n -> n > 0
    | Lf_obs.Json.Float f -> f > 0.0
    | _ -> false
  in
  if ok then begin
    Printf.printf "jsonlint: %s: %s = %s > 0\n" file path_expr
      (Lf_obs.Json.to_string v);
    exit 0
  end
  else begin
    Printf.eprintf "jsonlint: %s: %s = %s is not a positive number\n" file
      path_expr
      (Lf_obs.Json.to_string v);
    exit 1
  end

let () =
  (match Sys.argv with
  | [| _; "--cmp-ignoring"; keys; a; b |] -> cmp_ignoring keys a b
  | [| _; "--assert-positive"; path; file |] -> assert_positive path file
  | _ -> ());
  let jsonl = ref false in
  let files = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--jsonl" -> jsonl := true
        | "--cmp-ignoring" ->
            prerr_endline "usage: jsonlint --cmp-ignoring KEYS FILE1 FILE2";
            exit 2
        | "--assert-positive" ->
            prerr_endline "usage: jsonlint --assert-positive PATH FILE";
            exit 2
        | f -> files := f :: !files)
    Sys.argv;
  if !files = [] then begin
    prerr_endline "usage: jsonlint [--jsonl] FILE...";
    exit 2
  end;
  let failures = ref 0 in
  let fail what msg =
    incr failures;
    Printf.eprintf "jsonlint: %s: %s\n" what msg
  in
  let check what text =
    match Lf_obs.Json.parse text with Ok _ -> () | Error msg -> fail what msg
  in
  List.iter
    (fun path ->
      match Input_file.read path with
      | Error reason -> fail path reason
      | Ok text ->
          let values =
            if !jsonl then
              String.split_on_char '\n' text
              |> List.mapi (fun i line ->
                     (Printf.sprintf "%s:%d" path (i + 1), line))
              |> List.filter (fun (_, line) -> String.trim line <> "")
            else [ (path, text) ]
          in
          if values = [] then fail path "no JSON values found";
          List.iter (fun (what, text) -> check what text) values;
          if !failures = 0 then
            Printf.printf "jsonlint: %s: %d JSON value%s OK\n" path
              (List.length values)
              (if List.length values = 1 then "" else "s"))
    (List.rev !files);
  exit (if !failures = 0 then 0 else 1)
