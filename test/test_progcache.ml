(** The program cache ([Lf_simd.Progcache] / [Vm.run_src]) and the
    batch driver ([Lf_simd.Batch]).

    Units: content keying of the one entry (identical bytes under a
    different -O/verify/p miss, and a miss's insert replaces the entry),
    frame-pool layout safety, and the batch driver's cache traffic (one
    miss per chain, a hit for every other run).  The QCheck property is the
    tentpole contract: warm (cache-hit) runs are bit-identical to cold
    runs — state, [Metrics], error strings — on tree-walk/compiled/
    parallel at -O0/-O1/-O2.  Batch cases: failing-item isolation, the
    any-failed flag the CLI turns into exit 1, JSONL record schema,
    malformed work lists / seed tokens, and the concurrent scheduler:
    one and two workers give the same records and artifacts, a
    lane-sharding item never overlaps another item, and an exception
    from [setup] leaves after every earlier record. *)

open Helpers
open Lf_lang
module Vm = Lf_simd.Vm
module Metrics = Lf_simd.Metrics
module Progcache = Lf_simd.Progcache
module Batch = Lf_simd.Batch
module Stats = Lf_obs.Stats
module Json = Lf_obs.Json

let fuel = 20_000

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Record cache counters around [f]: the registry only records while
   enabled, and other suites expect it off, so bracket and reset. *)
let with_stats f =
  Stats.reset ();
  Stats.enable ();
  Fun.protect
    ~finally:(fun () ->
      Stats.disable ();
      Stats.reset ())
    f

let cache_counters () =
  let snap = Stats.snapshot ~sections:[ Stats.Opt ] () in
  let get k = Option.value ~default:0 (List.assoc_opt k snap) in
  (get "cache.hits", get "cache.misses")

(* ------------------------------------------------------------------ *)
(* Keying units                                                        *)
(* ------------------------------------------------------------------ *)

let src_a = "PROGRAM a\n  PLURAL INTEGER u\n  u = iproc * 2\nEND\n"
let src_b = "PROGRAM b\n  PLURAL INTEGER v\n  v = iproc + 1\nEND\n"

let key ~src ?(opt = 1) ?(verify = false) ?(p = 4) () =
  Progcache.key ~md5:(Digest.string src) ~opt ~verify ~p

let insert c ~src ?opt ?verify ?p () =
  Progcache.insert c (key ~src ?opt ?verify ?p ()) ~front_ns:1L
    (parse_program src)

let find c ~src ?opt ?verify ?p () =
  Progcache.find c (key ~src ?opt ?verify ?p ())

let t_content_keys () =
  with_stats (fun () ->
      let c = Progcache.create () in
      checkb "empty cache misses" (find c ~src:src_a () = None);
      let e = insert c ~src:src_a () in
      (* identical bytes under a different -O, verify flag or p are
         different programs as far as the cache is concerned *)
      checkb "other -O misses" (find c ~src:src_a ~opt:2 () = None);
      checkb "verify flag misses" (find c ~src:src_a ~verify:true () = None);
      checkb "other p misses" (find c ~src:src_a ~p:8 () = None);
      checkb "other source misses" (find c ~src:src_b () = None);
      (* a miss leaves the entry in place, and the key is the content,
         not the identity, of the bytes *)
      checkb "fresh equal bytes hit the entry"
        (match find c ~src:(String.concat "" [ src_a ]) () with
        | Some e' -> e' == e
        | None -> false);
      (* an insert under another key replaces the one entry *)
      ignore (insert c ~src:src_a ~opt:2 ());
      checkb "replaced entry misses" (find c ~src:src_a () = None);
      checkb "new entry hits" (find c ~src:src_a ~opt:2 () <> None);
      let hits, misses = cache_counters () in
      checki "hits counted" 2 hits;
      checki "misses counted" 6 misses)

let t_frame_pool () =
  let c = Progcache.create () in
  let e = insert c ~src:src_a ~p:4 () in
  let layout = [ "u"; "iproc" ] in
  let f1 = Progcache.take_frame e ~p:4 layout in
  Progcache.release_frame e f1;
  let f2 = Progcache.take_frame e ~p:4 layout in
  checkb "pooled frame reused" (f1 == f2);
  Progcache.release_frame e f2;
  (* a different layout must never receive the pooled frame: slot
     numbering is positional *)
  let f3 = Progcache.take_frame e ~p:4 [ "u"; "iproc"; "extra" ] in
  checkb "layout mismatch gets a fresh frame" (f3 != f2);
  (* reset cleared the slots of the reused frame *)
  checkb "reused frame slots unbound"
    (Lf_simd.Frame.get f2 0 = Lf_simd.Frame.Unbound)

(* ------------------------------------------------------------------ *)
(* Warm = cold (the tentpole contract)                                 *)
(* ------------------------------------------------------------------ *)

let run_src_one ?cache ?jobs ?opt ?verify engine ~p src :
    (Vm.t, string) result =
  match
    Vm.run_src ~fuel ~engine ?jobs ?opt ?verify ?cache ~p
      ~setup:(Gen.simd_prog_setup ~p) src
  with
  | vm -> Ok vm
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      Error (Errors.to_message e)

let agrees ~what ~src a b =
  match (a, b) with
  | Ok vm_a, Ok vm_b ->
      (Vm.state_equal vm_a vm_b
      && Metrics.equal vm_a.Vm.metrics vm_b.Vm.metrics)
      || QCheck.Test.fail_reportf "%s: state/metrics diverged on@.%s" what src
  | Error m_a, Error m_b ->
      m_a = m_b
      || QCheck.Test.fail_reportf "%s: errors differ (%S vs %S) on@.%s" what
           m_a m_b src
  | Ok _, Error m ->
      QCheck.Test.fail_reportf "%s: only warm failed (%S) on@.%s" what m src
  | Error m, Ok _ ->
      QCheck.Test.fail_reportf "%s: only cold failed (%S) on@.%s" what m src

let prop_warm_equals_cold prog =
  let src = Pretty.program_to_string prog in
  List.for_all
    (fun p ->
      List.for_all
        (fun (engine, jobs, opts) ->
          List.for_all
            (fun opt ->
              let what =
                Fmt.str "warm vs cold, %s -O%d p=%d"
                  (match engine with
                  | `Tree_walk -> "tree-walk"
                  | `Compiled -> "compiled"
                  | `Parallel -> "parallel")
                  opt p
              in
              (* a plain (cache-less) run is the reference; then a cold
                 run through a fresh cache, then two warm runs — the
                 second warm run additionally exercises the pooled
                 frame released by the first *)
              let plain = run_src_one ?jobs ~opt engine ~p src in
              let cache = Progcache.create () in
              let cold = run_src_one ~cache ?jobs ~opt engine ~p src in
              let warm1 = run_src_one ~cache ?jobs ~opt engine ~p src in
              let warm2 = run_src_one ~cache ?jobs ~opt engine ~p src in
              agrees ~what:(what ^ " (cold vs plain)") ~src cold plain
              && agrees ~what:(what ^ " (warm1)") ~src warm1 cold
              && agrees ~what:(what ^ " (warm2)") ~src warm2 cold)
            opts)
        [
          (`Tree_walk, None, [ 0 ]);
          (`Compiled, None, [ 0; 1; 2 ]);
          (`Parallel, Some 2, [ 0; 1; 2 ]);
        ])
    [ 0; 3; 64 ]

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)
(* ------------------------------------------------------------------ *)

let batch_item ?(program = "good.f") ?(p = 4) ?(engine = `Compiled)
    ?(opt = 1) ?jobs ?(verify = false) ?bfuel ?timeout_ms ?(repeat = 1)
    ?kernel ?(sets = []) ?(fills = []) () =
  {
    Batch.bi_program = program;
    bi_p = p;
    bi_engine = engine;
    bi_opt = opt;
    bi_jobs = jobs;
    bi_verify = verify;
    bi_fuel = bfuel;
    bi_timeout_ms = timeout_ms;
    bi_repeat = repeat;
    bi_kernel = kernel;
    bi_sets = sets;
    bi_fills = fills;
  }

let batch_read path =
  match path with
  | "good.f" -> src_a
  | "loop.f" ->
      (* long enough that a 1 ms deadline fires mid-run, short enough to
         stay inside the default fuel if the deadline machinery broke *)
      "PROGRAM loop\n  PLURAL INTEGER u\n  u = 0\n\
      \  WHILE (any(u < 10000000))\n    u = u + 1\n  ENDWHILE\nEND\n"
  | "bad-parse.f" -> "PROGRAM bad\n  u = (\nEND\n"
  | "fillw.f" ->
      (* writes into its seeded array *)
      "PROGRAM fillw\n  INTEGER v(3)\n  v(1) = v(1) + 100\nEND\n"
  | "div0.f" ->
      "PROGRAM div\n  PLURAL INTEGER u\n  u = 1 / (iproc - iproc)\nEND\n"
  | p -> raise (Sys_error (p ^ ": No such file or directory"))

let run_batch items =
  let records = ref [] in
  let any_failed =
    Batch.run ~read:batch_read ~emit:(fun j -> records := j :: !records) items
  in
  (any_failed, List.rev !records)

let str_field r k =
  match Json.member k r with Some (Json.Str s) -> Some s | _ -> None

let t_batch_isolation () =
  let any_failed, records =
    run_batch
      [
        batch_item ();
        batch_item ~program:"bad-parse.f" ();
        batch_item ~program:"div0.f" ();
        batch_item ~program:"missing.f" ();
        batch_item ~program:"loop.f" ~engine:`Tree_walk ~bfuel:10 ();
        (* and a healthy item AFTER the failures proves isolation *)
        batch_item ~engine:`Parallel ~jobs:2 ~opt:2 ~repeat:2 ();
      ]
  in
  checkb "any_failed set" any_failed;
  checki "one record per item" 6 (List.length records);
  let statuses = List.filter_map (fun r -> str_field r "status") records in
  checkb "statuses"
    (statuses = [ "ok"; "error"; "error"; "error"; "error"; "ok" ]);
  (* every failure message is carried in the record *)
  List.iteri
    (fun i r ->
      match str_field r "status" with
      | Some "error" ->
          checkb
            (Fmt.str "item %d has an error message" i)
            (match str_field r "error" with
            | Some m -> String.length m > 0
            | None -> false)
      | _ -> ())
    records

(* Fill strings are parsed once per batch, but every run must start from
   its own copy: the item after one that writes into a shared fill (and
   the second repeat of a writing item) sees the pristine values. *)
let t_batch_fill_private () =
  let states items =
    let dir = Filename.temp_dir "lf_batch" "" in
    let failed =
      Batch.run ~read:batch_read ~artifacts:dir items
    in
    checkb "no failures" (not failed);
    List.mapi
      (fun i _ ->
        let path = Filename.concat dir (Printf.sprintf "item-%03d.state.txt" i) in
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        Sys.remove
          (Filename.concat dir (Printf.sprintf "item-%03d.metrics.json" i));
        text)
      items
    |> fun texts ->
    Sys.rmdir dir;
    texts
  in
  let item ?repeat engine =
    batch_item ~program:"fillw.f" ~engine ?repeat ~fills:[ ("v", "1,2,3") ] ()
  in
  let solo = states [ item `Compiled ] in
  checkb "the program wrote into its fill"
    (Astring_contains.contains (List.hd solo) "101");
  let shared = states [ item `Compiled; item `Tree_walk; item ~repeat:2 `Compiled ] in
  List.iteri
    (fun i st -> checks (Fmt.str "item %d state equals a solo run" i) (List.hd solo) st)
    shared;
  (* a bad token is not memoized: each item sharing it reports it *)
  let _, records =
    run_batch
      [
        batch_item ~fills:[ ("v", "1,x") ] ();
        batch_item ~fills:[ ("v", "1,x") ] ();
      ]
  in
  let errors = List.filter_map (fun r -> str_field r "error") records in
  checki "both items fail" 2 (List.length errors);
  checks "same message" (List.nth errors 0) (List.nth errors 1)

let t_batch_ok_all () =
  let any_failed, records =
    run_batch [ batch_item (); batch_item ~engine:`Tree_walk () ]
  in
  checkb "no failures" (not any_failed);
  checki "records" 2 (List.length records)

let t_batch_schema () =
  let _, records = run_batch [ batch_item ~repeat:3 () ] in
  let r = List.hd records in
  let has k = Json.member k r <> None in
  List.iter
    (fun k -> checkb ("record has " ^ k) (has k))
    [
      "schema"; "index"; "program"; "program_md5"; "program_bytes";
      "engine"; "opt"; "jobs"; "p"; "repeat"; "wall_ns"; "status";
      "metrics";
    ];
  checkb "repeat echoed" (Json.member "repeat" r = Some (Json.Int 3));
  (* the record must itself be jsonlint-valid JSON *)
  match Json.parse (Json.to_string r) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("record does not re-parse: " ^ e)

(* The deadline is checked where fuel is charged, so it fires mid-run
   on every engine with the same message. *)
let t_batch_timeout () =
  List.iter
    (fun (what, engine, jobs) ->
      let _, records =
        run_batch
          [ batch_item ~program:"loop.f" ~engine ?jobs ~timeout_ms:1 () ]
      in
      match records with
      | [ r ] -> (
          checkb (what ^ ": timeout fails the item")
            (str_field r "status" = Some "error");
          match str_field r "error" with
          | Some m ->
              checkb (what ^ ": message names the timeout")
                (contains_sub m "batch item timeout after 1 ms")
          | None -> Alcotest.fail (what ^ ": no error message"))
      | _ -> Alcotest.fail (what ^ ": expected one record"))
    [
      ("tree-walk", `Tree_walk, None);
      ("compiled", `Compiled, None);
      ("parallel", `Parallel, Some 2);
    ]

(* An armed deadline reads the clock on every step without allocating:
   a warm compiled run under a generous deadline allocates exactly the
   minor words of the same run without one. *)
let t_deadline_alloc () =
  let src =
    "PROGRAM w\n  PLURAL INTEGER u\n  u = 0\n\
    \  WHILE (any(u < 2000))\n    u = u + iproc\n  ENDWHILE\nEND\n"
  in
  let words ~deadline =
    let cache = Progcache.create () in
    let setup vm =
      if deadline then
        Vm.set_deadline vm
          ~at_ns:(Int64.add (Stats.now_ns ()) 600_000_000_000L)
          "deadline passed"
    in
    let run () =
      ignore (Vm.run_src ~engine:`Compiled ~cache ~p:8 ~setup src : Vm.t)
    in
    run ();
    run ();
    with_stats (fun () ->
        run ();
        Stats.gauge_value (Stats.gauge "gc.minor_words"))
  in
  let without = words ~deadline:false in
  let armed = words ~deadline:true in
  checkb "the run allocates (the reading is live)" (without > 0.);
  checkb
    (Fmt.str "minor words with a deadline %.0f = without %.0f" armed without)
    (armed = without)

let t_batch_warm_metrics () =
  (* repeats run warm through the chain's cache; the driver's metrics
     must come out identical to a fresh cold driver's *)
  let _, cold = run_batch [ batch_item () ] in
  let _, warm = run_batch [ batch_item ~repeat:4 () ] in
  let metrics r = Json.member "metrics" (List.hd r) in
  checkb "warm metrics identical"
    (Option.map Json.to_string (metrics cold)
    = Option.map Json.to_string (metrics warm))

let t_items_of_json () =
  let ok_json =
    {|[{"program": "a.f", "p": 4},
       {"program": "b.f", "p": 8, "engine": "parallel", "jobs": 2,
        "opt": 2, "verify": true, "repeat": 3, "timeout_ms": 100,
        "set": {"k": 8}, "fill": {"l": "1,2,3"}}]|}
  in
  (match Json.parse ok_json with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Batch.items_of_json j with
      | [ a; b ] ->
          checkb "defaults" (a.Batch.bi_engine = `Compiled && a.Batch.bi_opt = 1 && a.Batch.bi_repeat = 1);
          checkb "fields"
            (b.Batch.bi_engine = `Parallel && b.Batch.bi_jobs = Some 2
           && b.Batch.bi_verify
            && b.Batch.bi_sets = [ ("k", "8") ]
            && b.Batch.bi_fills = [ ("l", "1,2,3") ]);
          (* the wrapped form parses to the same list *)
          checkb "wrapped form"
            (match Json.parse ({|{"jobs": |} ^ ok_json ^ "}") with
            | Ok j' -> Batch.items_of_json j' = [ a; b ]
            | Error _ -> false)
      | _ -> Alcotest.fail "expected two items"));
  let rejects what text =
    match Json.parse text with
    | Error _ -> Alcotest.fail (what ^ ": test JSON malformed")
    | Ok j -> (
        match Batch.items_of_json j with
        | exception Batch.Bad_jobs m ->
            checkb (what ^ ": message set") (String.length m > 0)
        | _ -> Alcotest.fail (what ^ ": accepted"))
  in
  rejects "non-list" {|"zap"|};
  rejects "missing program" {|[{"p": 4}]|};
  rejects "missing p" {|[{"program": "a.f"}]|};
  rejects "bad engine" {|[{"program": "a.f", "p": 4, "engine": "warp"}]|};
  rejects "bad opt" {|[{"program": "a.f", "p": 4, "opt": 7}]|};
  rejects "jobs without parallel" {|[{"program": "a.f", "p": 4, "jobs": 2}]|};
  rejects "bad repeat" {|[{"program": "a.f", "p": 4, "repeat": 0}]|}

(* A JSON integer literal past the int range is not a real number: the
   work-list reader keeps its token, and the item seeding it fails alone
   with the message the quoted form gets.  Real literals still seed
   REALs. *)
let t_big_json_seed () =
  let path = Filename.temp_file "lf_jobs" ".json" in
  let items =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              {|[{"program": "good.f", "p": 4, "set": {"k": 99999999999999999999}},
                 {"program": "good.f", "p": 4, "set": {"k": -99999999999999999999}},
                 {"program": "good.f", "p": 4, "set": {"k": 1e20, "h": 0.5, "j": 7}},
                 {"program": "good.f", "p": 4, "fill": {"l": 99999999999999999999}}]|});
        Batch.load path)
  in
  (match items with
  | [ a; b; c; _ ] ->
      checkb "big literal keeps its token"
        (a.Batch.bi_sets = [ ("k", "99999999999999999999") ]);
      checkb "negative big literal keeps its token"
        (b.Batch.bi_sets = [ ("k", "-99999999999999999999") ]);
      checkb "real literals seed REALs, ints INTEGERs"
        (List.map (fun (k, v) -> (k, Batch.scalar_value v)) c.Batch.bi_sets
        = [ ("k", Values.VReal 1e20); ("h", Values.VReal 0.5);
            ("j", Values.VInt 7) ])
  | _ -> Alcotest.fail "expected four items");
  let _, records = run_batch (items @ [ batch_item () ]) in
  let errors = List.map (fun r -> str_field r "error") records in
  checkb "each big-literal item fails alone with its token named"
    (errors
    = [
        Some {|invalid scalar value "99999999999999999999": integer out of range|};
        Some {|invalid scalar value "-99999999999999999999": integer out of range|};
        None;
        Some {|invalid array element "99999999999999999999": integer out of range|};
        None;
      ])

let t_seed_tokens () =
  checkb "int" (Batch.scalar_value "8" = Values.VInt 8);
  checkb "real" (Batch.scalar_value "0.5" = Values.VReal 0.5);
  checkb "bool" (Batch.scalar_value "TRUE" = Values.VBool true);
  (match Batch.scalar_value "yes" with
  | exception Batch.Bad_value m ->
      checkb "scalar message names token" (contains_sub m "yes")
  | _ -> Alcotest.fail "bad scalar accepted");
  (match Batch.fill_array "1,2,bogus" with
  | exception Batch.Bad_value m ->
      checkb "fill message names token" (contains_sub m "bogus")
  | _ -> Alcotest.fail "bad fill accepted");
  (* a decimal integer past the int range is an error, not a REAL *)
  List.iter
    (fun tok ->
      match Batch.scalar_value tok with
      | exception Batch.Bad_value m ->
          checkb "out-of-range scalar names token" (contains_sub m tok)
      | _ -> Alcotest.fail (Fmt.str "out-of-range scalar %s accepted" tok))
    [ "99999999999999999999"; "-99999999999999999999"; "+4611686018427387904" ];
  checkb "max_int still an int"
    (Batch.scalar_value "4611686018427387903" = Values.VInt max_int);
  (match Batch.fill_array "1,99999999999999999999,bogus" with
  | exception Batch.Bad_value m ->
      checkb "first bad fill token named"
        (contains_sub m "99999999999999999999" && contains_sub m "range")
  | _ -> Alcotest.fail "out-of-range fill accepted");
  match Batch.fill_array "1,2.5,3" with
  | Values.AReal _ -> ()
  | _ -> Alcotest.fail "mixed fill should be real"

(* The split-then-convert [fill_array] the one-pass parser replaced,
   kept as its oracle, with the rule added since: a decimal integer
   token [int_of_string] refuses is out of range, never a REAL. *)
let out_of_range tok =
  let digits = function
    | "" -> false
    | d -> String.for_all (fun c -> c >= '0' && c <= '9') d
  in
  let body =
    if tok <> "" && (tok.[0] = '-' || tok.[0] = '+') then
      String.sub tok 1 (String.length tok - 1)
    else tok
  in
  digits body && int_of_string_opt tok = None

let old_fill_array v =
  let items = String.split_on_char ',' v in
  let ints = List.filter_map int_of_string_opt items in
  if List.length ints = List.length items then
    Values.AInt (Nd.of_array (Array.of_list ints))
  else
    Values.AReal
      (Nd.of_array
         (Array.of_list
            (List.map
               (fun tok ->
                 if out_of_range tok then
                   raise
                     (Batch.Bad_value
                        (Printf.sprintf
                           "invalid array element %S: integer out of range"
                           tok));
                 match float_of_string_opt tok with
                 | Some f -> f
                 | None ->
                     raise
                       (Batch.Bad_value
                          (Printf.sprintf
                             "invalid array element %S: expected int or \
                              real"
                             tok)))
               items)))

(* Bitwise outcome: element type, exact elements (reals by their bits,
   so -0.0 and NaN payloads count) or the error message. *)
let fill_outcome f v =
  match f v with
  | Values.AInt a -> `Int (Nd.to_array a)
  | Values.AReal a -> `Real (Array.map Int64.bits_of_float (Nd.to_array a))
  | Values.ABool _ -> `Bool
  | exception Batch.Bad_value m -> `Error m

let fill_tokens =
  [ "+5"; "1_000"; "0x1F"; "0b101"; "0o17"; "nan"; "-nan"; "inf"; "1e5";
    "1E-3"; ""; " 5"; "5 "; " 1.5 "; "-0"; "-00"; "0"; "-0.0"; "1.5"; "-";
    "+"; "."; "12."; ".5"; "007"; "bogus"; "999999999999999999";
    "-999999999999999999"; "9999999999999999999"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "0.12345678901234568";
    "1_0.5"; "1__0"; "0x1p3"; "true"; "99999999999999999999";
    "-99999999999999999999"; "+99999999999999999999" ]

let fill_string_gen =
  let open QCheck.Gen in
  let token =
    oneof
      [
        oneofl fill_tokens;
        map string_of_int int;
        map string_of_int small_signed_int;
        map (Printf.sprintf "%.17g") float;
        map (Printf.sprintf "%g") float;
        (* plain decimals, the in-place reader's tokens, and past its
           limits: 16 to 25 fraction digits *)
        map2 (Printf.sprintf "%.*f") (0 -- 25) (float_range (-1e6) 1e6);
      ]
  in
  map (String.concat ",") (list_size (1 -- 6) token)

let t_fill_array_edges () =
  List.iter
    (fun v ->
      checkb (Fmt.str "fill %S" v)
        (fill_outcome Batch.fill_array v = fill_outcome old_fill_array v))
    (fill_tokens
    @ [ "1,2,3"; "1,2.5,3"; "1,,3"; ","; "1,2,"; "-0,1.5"; "0b101,1.5";
        "1,2,bogus,nan"; "1_000,2"; " 1,2" ])

let prop_fill_array_oracle =
  qcheck_test
    (QCheck.Test.make ~count:500
       ~name:"fill_array equals the split-then-convert reading"
       (QCheck.make ~print:(Fmt.str "%S") fill_string_gen)
       (fun v ->
         fill_outcome Batch.fill_array v = fill_outcome old_fill_array v
         || QCheck.Test.fail_reportf "fill_array disagrees on %S" v))

(* -- concurrent batch items ---------------------------------------- *)

let spin_src =
  "PROGRAM spin\n  PLURAL INTEGER u\n  u = 0\n\
  \  WHILE (any(u < 40 + iproc))\n    WHERE (u < 40 + iproc)\n\
  \      u = u + 1\n    ENDWHERE\n  ENDWHILE\nEND\n"

let mixed_read = function
  | "good2.f" -> src_b
  | "spin.f" -> spin_src
  | path -> batch_read path

(* Run [items] on [workers] workers; the records without "wall_ns", the
   artifact files by name, and the any-failed flag. *)
let batch_outputs ~workers items =
  let dir = Filename.temp_dir "lf_batch" "" in
  let records = ref [] in
  let failed =
    Batch.run ~read:mixed_read ~workers ~artifacts:dir
      ~emit:(fun j -> records := j :: !records)
      items
  in
  let strip = function
    | Json.Obj fields ->
        Json.to_string
          (Json.Obj (List.filter (fun (k, _) -> k <> "wall_ns") fields))
    | j -> Json.to_string j
  in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           let ic = open_in_bin path in
           let text = really_input_string ic (in_channel_length ic) in
           close_in ic;
           Sys.remove path;
           (f, text))
  in
  Sys.rmdir dir;
  (List.rev_map strip !records, files, failed)

let t_batch_workers_agree () =
  let fills = [ ("v", "1,2,3") ] in
  let items =
    [
      batch_item ();
      batch_item ~program:"bad-parse.f" ();
      batch_item ~program:"fillw.f" ~fills ~repeat:2 ();
      batch_item ~program:"good2.f" ~p:128 ~repeat:2 ();
      batch_item ~program:"div0.f" ();
      batch_item ~program:"good2.f" ~p:128 ~engine:`Parallel ~jobs:2 ~opt:2 ();
      batch_item ~engine:`Tree_walk ();
      batch_item ~program:"missing.f" ();
      batch_item ~opt:2 ~repeat:2 ();
      batch_item ~program:"loop.f" ~engine:`Tree_walk ~timeout_ms:1 ();
      batch_item ~program:"good2.f" ~p:128 ~engine:`Parallel ~jobs:1 ~opt:2 ();
      batch_item ~p:128 ~engine:`Parallel ~jobs:2 ~repeat:2 ();
      batch_item ~program:"fillw.f" ~fills ~engine:`Tree_walk ();
      batch_item ~program:"good2.f" ~engine:`Parallel ~jobs:2 ~opt:2 ();
      batch_item ~program:"good2.f" ~p:128 ~engine:`Tree_walk ();
      batch_item ~p:128 ~opt:2 ();
      batch_item ~program:"good2.f" ~repeat:3 ();
      batch_item ~program:"missing.f" ~p:128 ();
      batch_item ~engine:`Parallel ~jobs:1 ();
    ]
  in
  let r1, a1, f1 = batch_outputs ~workers:1 items in
  let r2, a2, f2 = batch_outputs ~workers:2 items in
  checki "one record per item" (List.length items) (List.length r1);
  checkb "any_failed set" f1;
  checkb "same any_failed" (f1 = f2);
  List.iteri
    (fun i (x, y) -> checks (Fmt.str "record %d" i) x y)
    (List.combine r1 r2);
  checki "two artifacts per successful item" 28 (List.length a1);
  checkb "same artifact names" (List.map fst a1 = List.map fst a2);
  List.iter2 (fun (f, x) (_, y) -> checks f x y) a1 a2

(* An exception that is not an item failure (here from [setup]) leaves
   after the records of every earlier item, at any worker count. *)
let t_batch_raise_in_order () =
  let items =
    [
      batch_item ~program:"spin.f" ();
      batch_item ~program:"good2.f" ~p:16 ();
      batch_item ~kernel:"zap" ();
      batch_item ~program:"good2.f" ~p:128 ();
    ]
  in
  let setup (it : Batch.item) _ =
    if it.Batch.bi_kernel = Some "zap" then raise (Batch.Bad_jobs "zap")
  in
  List.iter
    (fun workers ->
      let indices = ref [] in
      let emit j =
        match Json.member "index" j with
        | Some (Json.Int i) -> indices := i :: !indices
        | _ -> ()
      in
      match Batch.run ~read:mixed_read ~setup ~emit ~workers items with
      | exception Batch.Bad_jobs "zap" ->
          checkb
            (Fmt.str "%d workers: records 0 and 1, then the exception" workers)
            (List.rev !indices = [ 0; 1 ])
      | _ -> Alcotest.fail "the setup exception was not raised")
    [ 1; 2 ]

(* Every item stamps a global clock when its setup runs and, through an
   observer, at every statement it executes: no other item may stamp
   inside the interval of the item that shards its lanes, which needs
   two shard floors of lanes to shard at all. *)
let t_batch_sharding_alone () =
  let items =
    [
      batch_item ~program:"spin.f" ~repeat:2 ();
      batch_item ~program:"spin.f" ~opt:2 ~engine:`Tree_walk ~repeat:2 ();
      batch_item ~program:"spin.f" ~p:128 ~opt:0 ~repeat:2 ();
      batch_item ~program:"spin.f" ~p:(2 * Lf_simd.Pool.min_shard)
        ~engine:`Parallel ~jobs:2 ~repeat:3 ();
      batch_item ~program:"good2.f" ~p:8 ~repeat:2 ();
      batch_item ~program:"spin.f" ~p:16 ~engine:`Tree_walk ~repeat:2 ();
      batch_item ~program:"spin.f" ~p:64 ~opt:2 ~repeat:2 ();
    ]
  in
  let sharder = 3 in
  let arr = Array.of_list items in
  let n = Array.length arr in
  let clock = Atomic.make 0 and setups = Atomic.make 0 in
  let lo = Array.make n max_int and hi = Array.make n min_int in
  let stamp k =
    let t = Atomic.fetch_and_add clock 1 in
    lo.(k) <- min lo.(k) t;
    hi.(k) <- max hi.(k) t
  in
  let setup it vm =
    Atomic.incr setups;
    let k = ref 0 in
    while arr.(!k) != it do
      incr k
    done;
    let k = !k in
    stamp k;
    Vm.set_observer vm (fun _ ~mask:_ _ -> stamp k)
  in
  let failed = Batch.run ~read:mixed_read ~setup ~workers:2 items in
  checkb "no failures" (not failed);
  checki "one setup per run"
    (List.fold_left (fun a it -> a + it.Batch.bi_repeat) 0 items)
    (Atomic.get setups);
  Array.iteri
    (fun k _ ->
      if k <> sharder then
        checkb
          (Fmt.str "item %d [%d, %d] outside the sharding item [%d, %d]" k
             lo.(k) hi.(k) lo.(sharder) hi.(sharder))
          (hi.(k) < lo.(sharder) || lo.(k) > hi.(sharder)))
    arr

(* Each chain gets a cache of its own, and a one-entry cache is enough
   for it: over a mixed work list, the first run of a chain whose source
   could be read is its only miss, and every other run hits. *)
let t_batch_cache_traffic () =
  let items =
    List.concat_map
      (fun program ->
        [
          batch_item ~program ~repeat:2 ();
          batch_item ~program ~engine:`Tree_walk ~opt:2 ();
          batch_item ~program ~p:8 ~engine:`Parallel ~jobs:1 ~repeat:3 ();
          batch_item ~program ~opt:2 ~repeat:2 ();
          batch_item ~program ~engine:`Tree_walk ~repeat:2 ();
          batch_item ~program ~p:8 ~opt:2 ();
        ])
      [ "good.f"; "good2.f" ]
    @ [
        batch_item ~program:"missing.f" ~repeat:2 ();
        batch_item ~program:"good.f" ~p:8 ~engine:`Tree_walk ();
      ]
  in
  let readable =
    List.filter (fun it -> it.Batch.bi_program <> "missing.f") items
  in
  let chains =
    List.sort_uniq compare
      (List.map
         (fun it ->
           (it.Batch.bi_program, it.Batch.bi_opt, it.Batch.bi_verify,
            it.Batch.bi_p))
         readable)
  in
  let runs = List.fold_left (fun a it -> a + it.Batch.bi_repeat) 0 readable in
  with_stats (fun () ->
      let failed = Batch.run ~read:mixed_read items in
      checkb "the unreadable item fails the batch" failed;
      let hits, misses = cache_counters () in
      checki "chains" 8 (List.length chains);
      checki "one miss per readable chain" (List.length chains) misses;
      checki "every other run hits" (runs - List.length chains) hits)

let suite =
  [
    case "content-addressed keys" t_content_keys;
    case "frame pool layout safety" t_frame_pool;
    qcheck_case ~count:60 "warm runs bit-identical to cold"
      Gen.simd_prog_gen prop_warm_equals_cold;
    case "batch: failing-item isolation" t_batch_isolation;
    case "batch: all-green returns false" t_batch_ok_all;
    case "batch: fills parsed once, bound privately" t_batch_fill_private;
    case "batch: JSONL record schema" t_batch_schema;
    case "batch: per-item timeout" t_batch_timeout;
    case "batch: warm repeats keep metrics" t_batch_warm_metrics;
    case "batch: work-list parsing" t_items_of_json;
    case "batch: one cache miss per chain" t_batch_cache_traffic;
    case "batch: 1 and 2 workers write the same records and artifacts"
      t_batch_workers_agree;
    case "batch: a lane-sharding item runs alone" t_batch_sharding_alone;
    case "batch: a setup exception leaves in index order"
      t_batch_raise_in_order;
    case "seed-token parsing" t_seed_tokens;
    case "fill_array: edge tokens match the old parser" t_fill_array_edges;
    prop_fill_array_oracle;
    case "deadline checks allocate nothing" t_deadline_alloc;
    case "work list: huge JSON integers stay tokens" t_big_json_seed;
  ]
