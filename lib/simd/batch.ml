(** Batch run driver (see batch.mli).

    Items run by program-cache key: the items sharing one form a chain,
    run in work-list order on one domain with a cache of their own, and
    up to [workers] domains take chains in turn.  Sources are read and
    fill strings parsed once, on the calling domain, before any item
    runs; records leave in index order, one at a time. *)

open Lf_lang
module Json = Lf_obs.Json
module Stats = Lf_obs.Stats

type item = {
  bi_program : string;
  bi_p : int;
  bi_engine : string;
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

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* -- seed-value parsing (shared with simdsim's --set/--fill) -------- *)

(* Whether [v] is an optionally signed run of decimal digits that
   [int_of_string] refuses: an integer past the int range.  Such a token
   is an error, never the REAL [float_of_string] would read it as. *)
let int_overflow v =
  let n = String.length v in
  let d = if n > 0 && (v.[0] = '-' || v.[0] = '+') then 1 else 0 in
  let rec digits i =
    i = n || (v.[i] >= '0' && v.[i] <= '9' && digits (i + 1))
  in
  d < n && digits d && int_of_string_opt v = None

let out_of_range what v =
  Bad_value (Printf.sprintf "invalid %s %S: integer out of range" what v)

let scalar_value v =
  match int_of_string_opt v with
  | Some n -> Values.VInt n
  | None when int_overflow v -> raise (out_of_range "scalar value" v)
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

(* The end of the fill token starting at [i]: the next ',' or [n]. *)
let rec token_end v i n =
  if i = n || String.unsafe_get v i = ',' then i else token_end v (i + 1) n

(* One pass over the tokens, as integers while they all are, else (from
   the first token again) as reals.  Plain decimals with an optional
   '-' are read in place by the lexer's readers, which agree bit for bit
   with [int_of_string] / [float_of_string]; every other token goes
   through [int_of_string_opt] / [float_of_string_opt] as a substring,
   so the result (and the first bad token named) is the split-then-
   convert reading's. *)
let fill_array v =
  let n = String.length v in
  let count = ref 1 in
  for i = 0 to n - 1 do
    if String.unsafe_get v i = ',' then incr count
  done;
  let count = !count in
  let sign s e = if s < e && String.unsafe_get v s = '-' then s + 1 else s in
  let ints = Array.make count 0 in
  let rec int_pass k s =
    k = count
    ||
    let e = token_end v s n in
    let d = sign s e in
    let x = Lexer.plain_int v d e in
    (if x >= 0 then begin
       Array.unsafe_set ints k (if d > s then -x else x);
       true
     end
     else
       match int_of_string_opt (String.sub v s (e - s)) with
       | Some x ->
           Array.unsafe_set ints k x;
           true
       | None -> false)
    && int_pass (k + 1) (e + 1)
  in
  if int_pass 0 0 then Values.AInt (Nd.of_array ints)
  else begin
    let reals = Array.make count 0.0 in
    let s = ref 0 in
    for k = 0 to count - 1 do
      let e = token_end v !s n in
      let d = sign !s e in
      let f = Lexer.plain_real v d e in
      Array.unsafe_set reals k
        (if not (Float.is_nan f) then if d > !s then -.f else f
         else
           let t = String.sub v !s (e - !s) in
           if int_overflow t then raise (out_of_range "array element" t);
           match float_of_string_opt t with
           | Some f -> f
           | None ->
               raise
                 (Bad_value
                    (Printf.sprintf
                       "invalid array element %S: expected int or real" t)));
      s := e + 1
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
      (* every name runs the compiled engine; only the record keeps it *)
      let engine =
        match get_str ~what:(what "engine") (field j "engine") with
        | None -> "compiled"
        | Some (("compiled" | "tree-walk" | "parallel") as s) -> s
        | Some s ->
            bad
              "item %d: engine %S: expected tree-walk, compiled or parallel"
              i s
      in
      let parallel = engine = "parallel" in
      let opt =
        match get_int ~what:(what "opt") (field j "opt") with
        | None -> 1
        | Some n when n >= 0 && n <= 2 -> n
        | Some n -> bad "item %d: opt = %d: expected 0, 1 or 2" i n
      in
      (* "tree-walk" runs -O0, under -O0's cache key *)
      let opt = if engine = "tree-walk" then 0 else opt in
      let jobs =
        match get_int ~what:(what "jobs") (field j "jobs") with
        | Some n when n < 1 -> bad "item %d: jobs = %d: must be >= 1" i n
        | Some _ when not parallel ->
            bad "item %d: jobs requires \"engine\": \"parallel\"" i
        | Some n -> Some n
        | None -> if parallel then Some (default_jobs ()) else None
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
  (* an integer literal past the int range stays its token, so a seed
     written that way fails its item with the message the quoted form
     gets, instead of seeding the REAL it would round to *)
  match Json.parse ~big_int:(fun tok -> Json.Str tok) text with
  | Ok j -> items_of_json j
  | Error msg -> bad "%s: %s" path msg

(* -- execution ------------------------------------------------------ *)

(* The jobs count an item's record reports. *)
let jobs_used it = Option.value it.bi_jobs ~default:1

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

(* [src] is the item's source text, or what reading it raised; [fill]
   returns a private copy of a parsed fill string (see [run]). *)
let run_item ~cache ~src ~fill ~setup (it : item) : (Vm.t, string) result =
  try
    let src = match src with Ok s -> s | Error e -> raise e in
    let deadline =
      Option.map
        (fun ms ->
          ( Int64.add (Stats.now_ns ()) (Int64.of_int (ms * 1_000_000)),
            Printf.sprintf "batch item timeout after %d ms" ms ))
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
      Option.iter (fun (at_ns, msg) -> Vm.set_deadline vm ~at_ns msg) deadline
    in
    let vm = ref None in
    for _ = 1 to it.bi_repeat do
      vm :=
        Some
          (Vm.run_src ?fuel:it.bi_fuel ~opt:it.bi_opt
             ~verify:it.bi_verify ~cache ~p:it.bi_p ~setup:vm_setup src)
    done;
    Ok (Option.get !vm)
  with
  | Sys_error msg | Bad_value msg | Vm.Timed_out msg -> Error msg
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

(* [src] is the item's source text and its digest, when it was read. *)
let record ~index (it : item) ~src ~wall_ns outcome =
  let base =
    [
      ("schema", Json.Int 1);
      ("index", Json.Int index);
      ("program", Json.Str it.bi_program);
    ]
    @ (match src with
      | Some (text, md5) ->
          [
            ("program_md5", Json.Str (Digest.to_hex md5));
            ("program_bytes", Json.Int (String.length text));
          ]
      | None -> [])
    @ [
        ("engine", Json.Str it.bi_engine);
        ("opt", Json.Int it.bi_opt);
        ("jobs", Json.Int (jobs_used it));
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
              Metrics.to_json ~engine:it.bi_engine ~opt:it.bi_opt
                ~jobs:(jobs_used it) vm.Vm.metrics );
          ])
  | Error msg ->
      Json.Obj (base @ [ ("status", Json.Str "error"); ("error", Json.Str msg) ])

(* The texts of [item-NNN.metrics.json] and [item-NNN.state.txt]. *)
let artifact_texts (vm : Vm.t) (it : item) =
  ( Json.to_string
      (Metrics.to_json ~engine:it.bi_engine ~opt:it.bi_opt
         ~jobs:(jobs_used it) vm.Vm.metrics)
    ^ "\n",
    Format.asprintf "%a" dump_state vm )

(* An unusable directory fails here, before any item runs. *)
let prepare_artifacts dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": Not a directory"))

let write_artifacts dir ~index (metrics, state) =
  List.iter
    (fun (suffix, text) ->
      let oc =
        open_out (Filename.concat dir (Printf.sprintf "item-%03d.%s" index suffix))
      in
      output_string oc text;
      close_out oc)
    [ ("metrics.json", metrics); ("state.txt", state) ]

(* -- scheduling ----------------------------------------------------- *)

(* What a finished item hands to the emitter: its record and artifact
   texts, or the exception that escaped it (re-raised in index order,
   so the records before it still leave). *)
type finished =
  | Done of { record : Json.t; texts : (string * string) option; ok : bool }
  | Raised of exn * Printexc.raw_backtrace

(* The state the workers and the emitter share, under [mu]. *)
type sched = {
  mu : Mutex.t;
  results : finished option array;  (** by index, until emitted *)
  mutable next_chain : int;
  mutable cutoff : int;  (** no item at or past this index starts *)
}

(* Items sharing a program-cache key form one chain (see [run]); a
   source that could not be read has no key, only its path. *)
type chain_key = Key of Progcache.key | Unread of string

(* Admit item [i], or refuse it once the batch is cut off before it. *)
let enter s i = Mutex.protect s.mu (fun () -> i < s.cutoff)

let leave s i r =
  Mutex.protect s.mu (fun () ->
      s.results.(i) <- Some r;
      match r with Raised _ -> s.cutoff <- min s.cutoff i | Done _ -> ())

let run ?read ?(setup = fun _ _ -> ()) ?(emit = fun _ -> ()) ?artifacts
    ?(workers = default_jobs ()) items =
  if workers < 1 then invalid_arg "Batch.run: workers < 1";
  let read = Option.value read ~default:read_file in
  Option.iter prepare_artifacts artifacts;
  let items = Array.of_list items in
  let n = Array.length items in
  (* Everything the items share is made here, on the calling domain, and
     only read afterwards: each source is read once per path, each fill
     string parsed once (every run binds its own copy, since a program
     may write into a seeded array; a bad token fails every item that
     uses it with the same message). *)
  let sources = Hashtbl.create 8 in
  let source path =
    match Hashtbl.find_opt sources path with
    | Some s -> s
    | None ->
        let s =
          match read path with
          | text -> Ok (text, Digest.string text)
          | exception e -> Error e
        in
        Hashtbl.add sources path s;
        s
  in
  let fills = Hashtbl.create 8 in
  let fill v =
    match Hashtbl.find fills v with
    | Ok a -> Values.arr_copy a
    | Error msg -> raise (Bad_value msg)
  in
  (* Chains, in order of their first item; each keeps work-list order. *)
  let by_key = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i it ->
      List.iter
        (fun (_, v) ->
          if not (Hashtbl.mem fills v) then
            Hashtbl.add fills v
              (match fill_array v with
              | a -> Ok a
              | exception Bad_value msg -> Error msg))
        it.bi_fills;
      let k =
        match source it.bi_program with
        | Ok (_, md5) ->
            Key
              (Progcache.key ~md5 ~opt:it.bi_opt ~verify:it.bi_verify
                 ~p:it.bi_p)
        | Error _ -> Unread it.bi_program
      in
      match Hashtbl.find_opt by_key k with
      | Some c -> c := i :: !c
      | None ->
          let c = ref [ i ] in
          Hashtbl.add by_key k c;
          order := c :: !order)
    items;
  let chains = Array.of_list (List.rev_map (fun c -> List.rev !c) !order) in
  let s =
    {
      mu = Mutex.create ();
      results = Array.make n None;
      next_chain = 0;
      cutoff = n;
    }
  in
  let execute cache i =
    let it = items.(i) in
    try
      let src = Hashtbl.find sources it.bi_program in
      let t0 = Stats.now_ns () in
      let outcome =
        run_item ~cache ~src:(Result.map fst src) ~fill ~setup it
      in
      let wall_ns = Int64.sub (Stats.now_ns ()) t0 in
      Done
        {
          record =
            record ~index:i it ~src:(Result.to_option src) ~wall_ns outcome;
          texts =
            (match (outcome, artifacts) with
            | Ok vm, Some _ -> Some (artifact_texts vm it)
            | _ -> None);
          ok = Result.is_ok outcome;
        }
    with e -> Raised (e, Printexc.get_raw_backtrace ())
  in
  (* Records (and artifacts) leave in index order, each as soon as it
     and every earlier item are done, from the worker that finished the
     last of them; [emit_mu] keeps them in sequence.  The first
     exception — an item's, or one from [emit] or an artifact write —
     stops the emission and is raised once the workers are done. *)
  let emit_mu = Mutex.create () in
  let emitted = ref 0 and any_failed = ref false and failure = ref None in
  let rec drain () =
    if !emitted < n && Option.is_none !failure then
      match
        Mutex.protect s.mu (fun () ->
            let r = s.results.(!emitted) in
            s.results.(!emitted) <- None;
            r)
      with
      | None -> ()
      | Some (Raised (e, bt)) -> failure := Some (e, bt)
      | Some (Done d) -> (
          match
            Option.iter
              (fun dir ->
                Option.iter (write_artifacts dir ~index:!emitted) d.texts)
              artifacts;
            emit d.record
          with
          | () ->
              if not d.ok then any_failed := true;
              incr emitted;
              drain ()
          | exception e ->
              failure := Some (e, Printexc.get_raw_backtrace ());
              Mutex.protect s.mu (fun () -> s.cutoff <- -1))
  in
  (* A worker takes the next chain until none is left and runs it with a
     cache of its own, dropped when the chain ends. *)
  let rec worker () =
    match
      Mutex.protect s.mu (fun () ->
          if s.next_chain < Array.length chains then begin
            s.next_chain <- s.next_chain + 1;
            Some chains.(s.next_chain - 1)
          end
          else None)
    with
    | None -> ()
    | Some chain ->
        let cache = Progcache.create () in
        List.iter
          (fun i ->
            if enter s i then begin
              leave s i (execute cache i);
              Mutex.protect emit_mu drain
            end)
          chain;
        worker ()
  in
  (* The calling domain is one of the workers.  The telemetry registry's
     fields are plain mutable ones: with it on, it is the only one. *)
  let workers =
    if Stats.enabled () then 1
    else max 1 (min workers (Array.length chains))
  in
  let domains = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join domains)
    worker;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure;
  !any_failed
