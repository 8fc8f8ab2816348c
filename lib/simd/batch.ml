(** Batch run driver (see batch.mli).

    Everything sequential runs on the control thread: the cache is
    touched between items only, the parallel engine shards lanes
    internally, and source reads are memoized per path — a grid of
    items over the same few programs reads and parses each source
    once.  Fill strings are parsed once per [run] as well. *)

open Lf_lang
module Json = Lf_obs.Json
module Stats = Lf_obs.Stats

type item = {
  bi_program : string;
  bi_p : int;
  bi_engine : Vm.engine;
  bi_opt : int;
  bi_jobs : int option;
  bi_verify : bool;
  bi_fuel : int option;
  bi_timeout_ms : int option;
  bi_repeat : int;
  bi_kernel : string option;
  bi_sets : (string * string) list;
  bi_fills : (string * string) list;
}

exception Bad_jobs of string
exception Bad_value of string

(* -- seed-value parsing (shared with simdsim's --set/--fill) -------- *)

let scalar_value v =
  match int_of_string_opt v with
  | Some n -> Values.VInt n
  | None -> (
      match float_of_string_opt v with
      | Some f -> Values.VReal f
      | None -> (
          match String.lowercase_ascii v with
          | "true" -> Values.VBool true
          | "false" -> Values.VBool false
          | _ ->
              raise
                (Bad_value
                   (Printf.sprintf
                      "invalid scalar value %S: expected int, real, true \
                       or false"
                      v))))

(* Whether [v.[s .. e - 1]] is a plain decimal integer -- an optional
   '-' and 1 to 18 digits, so it cannot overflow -- storing its value in
   [ints.(k)].  It is then the value [int_of_string] reads, and
   [float_of_string] reads its [float_of_int] (negated zero apart). *)
let plain_int v s e (ints : int array) k =
  let neg = s < e && String.unsafe_get v s = '-' in
  let d = if neg then s + 1 else s in
  e - d >= 1
  && e - d <= 18
  &&
  let acc = ref 0 and i = ref d in
  while
    !i < e
    &&
    let c = String.unsafe_get v !i in
    c >= '0' && c <= '9'
  do
    acc := (!acc * 10) + (Char.code (String.unsafe_get v !i) - 48);
    incr i
  done;
  !i = e
  && begin
       ints.(k) <- (if neg then - !acc else !acc);
       true
     end

(* One pass over the comma positions; plain decimal integers are read in
   place, every other token goes through [int_of_string_opt] /
   [float_of_string_opt] as a substring, so the result (and the first
   bad token named) is the split-then-convert reading's. *)
let fill_array v =
  let n = String.length v in
  let count =
    1 + String.fold_left (fun k c -> if c = ',' then k + 1 else k) 0 v
  in
  (* token [k] is [v.[start.(k) .. start.(k + 1) - 2]] *)
  let start = Array.make (count + 1) (n + 1) in
  start.(0) <- 0;
  let k = ref 1 in
  String.iteri
    (fun i c ->
      if c = ',' then begin
        start.(!k) <- i + 1;
        incr k
      end)
    v;
  let tok k = String.sub v start.(k) (start.(k + 1) - 1 - start.(k)) in
  let ints = Array.make count 0 in
  let rec all_ints k =
    k >= count
    || (plain_int v start.(k) (start.(k + 1) - 1) ints k
       ||
       match int_of_string_opt (tok k) with
       | Some x ->
           ints.(k) <- x;
           true
       | None -> false)
       && all_ints (k + 1)
  in
  if all_ints 0 then Values.AInt (Nd.of_array ints)
  else begin
    let reals = Array.make count 0.0 in
    for k = 0 to count - 1 do
      let s = start.(k) in
      reals.(k) <-
        (if plain_int v s (start.(k + 1) - 1) ints k then
           if ints.(k) = 0 && v.[s] = '-' then -0.0 else float_of_int ints.(k)
         else
           match float_of_string_opt (tok k) with
           | Some f -> f
           | None ->
               raise
                 (Bad_value
                    (Printf.sprintf
                       "invalid array element %S: expected int or real"
                       (tok k))))
    done;
    Values.AReal (Nd.of_array reals)
  end

(* -- work-list parsing --------------------------------------------- *)

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_jobs m)) fmt

let field obj k = Json.member k obj

let get_int ~what = function
  | Some (Json.Int n) -> Some n
  | Some _ -> bad "%s: expected an integer" what
  | None -> None

let get_bool ~what = function
  | Some (Json.Bool b) -> Some b
  | Some _ -> bad "%s: expected a boolean" what
  | None -> None

let get_str ~what = function
  | Some (Json.Str s) -> Some s
  | Some _ -> bad "%s: expected a string" what
  | None -> None

let get_bindings ~what = function
  | None -> []
  | Some (Json.Obj fields) ->
      List.map
        (fun (k, v) ->
          match v with
          | Json.Str s -> (String.lowercase_ascii k, s)
          | Json.Int n -> (String.lowercase_ascii k, string_of_int n)
          | Json.Float f ->
              (String.lowercase_ascii k, Printf.sprintf "%.17g" f)
          | _ -> bad "%s.%s: expected a string or number" what k)
        fields
  | Some _ -> bad "%s: expected an object of name -> value" what

let item_of_json i j =
  let what k = Printf.sprintf "item %d: %s" i k in
  match j with
  | Json.Obj _ ->
      let program =
        match get_str ~what:(what "program") (field j "program") with
        | Some s -> s
        | None -> bad "item %d: missing required field \"program\"" i
      in
      let p =
        match get_int ~what:(what "p") (field j "p") with
        | Some n when n >= 1 -> n
        | Some n -> bad "item %d: p = %d: must be >= 1" i n
        | None -> bad "item %d: missing required field \"p\"" i
      in
      let engine =
        match get_str ~what:(what "engine") (field j "engine") with
        | None | Some "compiled" -> `Compiled
        | Some "tree-walk" -> `Tree_walk
        | Some "parallel" -> `Parallel
        | Some s ->
            bad
              "item %d: engine %S: expected tree-walk, compiled or parallel"
              i s
      in
      let opt =
        match get_int ~what:(what "opt") (field j "opt") with
        | None -> 1
        | Some n when n >= 0 && n <= 2 -> n
        | Some n -> bad "item %d: opt = %d: expected 0, 1 or 2" i n
      in
      let jobs =
        match get_int ~what:(what "jobs") (field j "jobs") with
        | Some n when n < 1 -> bad "item %d: jobs = %d: must be >= 1" i n
        | v ->
            if v <> None && engine <> `Parallel then
              bad "item %d: jobs requires \"engine\": \"parallel\"" i
            else v
      in
      let fuel =
        match get_int ~what:(what "fuel") (field j "fuel") with
        | Some n when n < 1 -> bad "item %d: fuel = %d: must be >= 1" i n
        | v -> v
      in
      let timeout_ms =
        match get_int ~what:(what "timeout_ms") (field j "timeout_ms") with
        | Some n when n < 1 ->
            bad "item %d: timeout_ms = %d: must be >= 1" i n
        | v -> v
      in
      let repeat =
        match get_int ~what:(what "repeat") (field j "repeat") with
        | None -> 1
        | Some n when n >= 1 -> n
        | Some n -> bad "item %d: repeat = %d: must be >= 1" i n
      in
      {
        bi_program = program;
        bi_p = p;
        bi_engine = engine;
        bi_opt = opt;
        bi_jobs = jobs;
        bi_verify =
          Option.value ~default:false
            (get_bool ~what:(what "verify") (field j "verify"));
        bi_fuel = fuel;
        bi_timeout_ms = timeout_ms;
        bi_repeat = repeat;
        bi_kernel = get_str ~what:(what "kernel") (field j "kernel");
        bi_sets = get_bindings ~what:(what "set") (field j "set");
        bi_fills = get_bindings ~what:(what "fill") (field j "fill");
      }
  | _ -> bad "item %d: expected an object" i

let items_of_json = function
  | Json.List items -> List.mapi item_of_json items
  | Json.Obj _ as obj -> (
      match Json.member "jobs" obj with
      | Some (Json.List items) -> List.mapi item_of_json items
      | Some _ -> bad "\"jobs\": expected an array of items"
      | None -> bad "expected an array of items or {\"jobs\": [...]}")
  | _ -> bad "expected an array of items or {\"jobs\": [...]}"

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse text with
  | Ok j -> items_of_json j
  | Error msg -> bad "%s: %s" path msg

(* -- execution ------------------------------------------------------ *)

let engine_name = function
  | `Tree_walk -> "tree-walk"
  | `Compiled -> "compiled"
  | `Parallel -> "parallel"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One VM state line per variable, sorted by name — the deterministic
   state artifact warm-vs-cold smokes byte-compare. *)
let dump_state ppf (vm : Vm.t) =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) vm.Vm.vars []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, e) ->
         match e with
         | Vm.VScalar r -> Fmt.pf ppf "%s = %a@." name Values.pp !r
         | Vm.VPlural vs ->
             Fmt.pf ppf "%s = %a@." name Pval.pp (Pval.Plural vs)
         | Vm.VGlobal a | Vm.VPluralArr a ->
             Fmt.pf ppf "%s = %a@." name Values.pp (Values.VArr a))

(* [fill] parses a fill string to a private array (see [run]). *)
let run_item ~cache ~read ~fill ~setup (it : item) : (Vm.t, string) result =
  try
    let src = read it.bi_program in
    let deadline =
      Option.map
        (fun ms ->
          Int64.add (Stats.now_ns ()) (Int64.of_int (ms * 1_000_000)))
        it.bi_timeout_ms
    in
    let vm_setup vm =
      Vm.bind_scalar vm "p" (Values.VInt it.bi_p);
      setup it vm;
      List.iter
        (fun (k, v) -> Vm.bind_scalar vm k (scalar_value v))
        it.bi_sets;
      List.iter
        (fun (k, v) -> Vm.bind_global vm k (fill v))
        it.bi_fills;
      Option.iter
        (fun dl ->
          Vm.set_observer vm (fun _ ~mask:_ _ ->
              if Int64.compare (Stats.now_ns ()) dl > 0 then
                Errors.runtime_error "batch item timeout after %d ms"
                  (Option.get it.bi_timeout_ms)))
        deadline
    in
    let vm = ref None in
    for _ = 1 to it.bi_repeat do
      vm :=
        Some
          (Vm.run_src ?fuel:it.bi_fuel ~engine:it.bi_engine ?jobs:it.bi_jobs
             ~opt:it.bi_opt ~verify:it.bi_verify ~cache ~p:it.bi_p
             ~setup:vm_setup src)
    done;
    Ok (Option.get !vm)
  with
  | Sys_error msg -> Error msg
  | Bad_value msg -> Error msg
  | Verify.Error diags ->
      Error
        (String.concat "; "
           ("IR verification failed"
           :: List.map
                (fun d ->
                  Printf.sprintf "%s: %s" d.Lf_analysis.Lint.d_rule
                    d.Lf_analysis.Lint.d_msg)
                diags))
  | ( Errors.Lex_error _ | Errors.Parse_error _ | Errors.Type_error _
    | Errors.Runtime_error _ | Errors.Runtime_error_at _ ) as e ->
      Error (Errors.to_message e)

let record ~index (it : item) ~src_opt ~wall_ns outcome =
  let jobs_used =
    match it.bi_engine with
    | `Parallel -> Option.value it.bi_jobs ~default:(Pool.default_jobs ())
    | _ -> 1
  in
  let opt_used = match it.bi_engine with `Tree_walk -> 0 | _ -> it.bi_opt in
  let base =
    [
      ("schema", Json.Int 1);
      ("index", Json.Int index);
      ("program", Json.Str it.bi_program);
    ]
    @ (match src_opt with
      | Some src ->
          [
            ("program_md5", Json.Str (Digest.to_hex (Digest.string src)));
            ("program_bytes", Json.Int (String.length src));
          ]
      | None -> [])
    @ [
        ("engine", Json.Str (engine_name it.bi_engine));
        ("opt", Json.Int opt_used);
        ("jobs", Json.Int jobs_used);
        ("p", Json.Int it.bi_p);
        ("repeat", Json.Int it.bi_repeat);
        ("wall_ns", Json.Int (Int64.to_int wall_ns));
      ]
  in
  match outcome with
  | Ok (vm : Vm.t) ->
      Json.Obj
        (base
        @ [
            ("status", Json.Str "ok");
            ( "metrics",
              Metrics.to_json ~engine:(engine_name it.bi_engine)
                ~opt:opt_used ~jobs:jobs_used vm.Vm.metrics );
          ])
  | Error msg ->
      Json.Obj (base @ [ ("status", Json.Str "error"); ("error", Json.Str msg) ])

let write_artifacts dir ~index (vm : Vm.t) (it : item) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let jobs_used =
    match it.bi_engine with
    | `Parallel -> Option.value it.bi_jobs ~default:(Pool.default_jobs ())
    | _ -> 1
  in
  let opt_used = match it.bi_engine with `Tree_walk -> 0 | _ -> it.bi_opt in
  let mpath = Filename.concat dir (Printf.sprintf "item-%03d.metrics.json" index) in
  let oc = open_out mpath in
  output_string oc
    (Json.to_string
       (Metrics.to_json ~engine:(engine_name it.bi_engine) ~opt:opt_used
          ~jobs:jobs_used vm.Vm.metrics));
  output_char oc '\n';
  close_out oc;
  let spath = Filename.concat dir (Printf.sprintf "item-%03d.state.txt" index) in
  let oc = open_out spath in
  let ppf = Format.formatter_of_out_channel oc in
  dump_state ppf vm;
  Format.pp_print_flush ppf ();
  close_out oc

let run ?cache ?read ?(setup = fun _ _ -> ()) ?(emit = fun _ -> ())
    ?artifacts items =
  let cache = match cache with Some c -> c | None -> Progcache.create () in
  let read =
    match read with
    | Some f -> f
    | None ->
        (* Memoize source reads: a sweep over one program re-reads it
           zero times after the first item (the cache dedupes the parse
           by content; this dedupes the IO by path). *)
        let memo : (string, string) Hashtbl.t = Hashtbl.create 8 in
        fun path ->
          match Hashtbl.find_opt memo path with
          | Some s -> s
          | None ->
              let s = read_file path in
              Hashtbl.add memo path s;
              s
  in
  (* Fill strings are parsed once per [run], keyed by content: items of a
     sweep usually share their inputs.  Every run binds its own copy,
     since a program may write into a seeded array.  A token error is
     not memoized, so every item it hits reports it the same way. *)
  let parsed : (string, Values.arr) Hashtbl.t = Hashtbl.create 8 in
  let fill v =
    Values.arr_copy
      (match Hashtbl.find_opt parsed v with
      | Some a -> a
      | None ->
          let a = fill_array v in
          Hashtbl.add parsed v a;
          a)
  in
  let any_failed = ref false in
  List.iteri
    (fun index it ->
      let t0 = Stats.now_ns () in
      let outcome = run_item ~cache ~read ~fill ~setup it in
      let wall_ns = Int64.sub (Stats.now_ns ()) t0 in
      let src_opt =
        try Some (read it.bi_program) with Sys_error _ -> None
      in
      (match outcome with
      | Ok vm -> Option.iter (fun d -> write_artifacts d ~index vm it) artifacts
      | Error _ -> any_failed := true);
      emit (record ~index it ~src_opt ~wall_ns outcome))
    items;
  !any_failed
