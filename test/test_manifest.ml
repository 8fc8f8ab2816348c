(** Run manifests ([Lf_obs.Manifest]): the JSON artifact round-trips
    exactly ([of_json (to_json m) = Ok m]), survives a write-to-disk
    cycle, and rejects malformed input with a message naming the
    problem. *)

open Helpers
module Manifest = Lf_obs.Manifest
module Json = Lf_obs.Json

let sample () =
  Manifest.make ~program:"examples/fortran/example_flat_simd.f"
    ~source:"DO i = 1, k\n  x(i) = i\nENDDO\n" ~engine:"parallel" ~opt:1
    ~jobs:4 ~p:128 ~wall_ns:123_456_789L ~cpu_s:0.042
    ~metrics:(Json.Obj [ ("vector_steps", Json.Int 17) ])
    ~stats:
      (Json.Obj
         [
           ("version", Json.Int 1);
           ("counters", Json.Obj [ ("dispatch.assign", Json.Int 9) ]);
         ])

let t_round_trip () =
  let m = sample () in
  match Manifest.of_json (Manifest.to_json m) with
  | Ok m' -> checkb "of_json (to_json m) = m" (m = m')
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)

let t_md5 () =
  let m = sample () in
  let m2 =
    Manifest.make ~program:"other.f" ~source:"DO i = 1, k\n  x(i) = i\nENDDO\n"
      ~engine:"seq" ~opt:0 ~jobs:1 ~p:1 ~wall_ns:1L ~cpu_s:0.0
      ~metrics:(Json.Obj []) ~stats:(Json.Obj [])
  in
  (match Manifest.to_json m with
  | Json.Obj fields ->
      (match List.assoc_opt "program_md5" fields with
      | Some (Json.Str hex) ->
          checki "md5 is 32 hex chars" 32 (String.length hex);
          checkb "md5 is derived from the source bytes, not the path"
            (match Manifest.to_json m2 with
            | Json.Obj f2 -> List.assoc_opt "program_md5" f2 = Some (Json.Str hex)
            | _ -> false)
      | _ -> Alcotest.fail "manifest has no program_md5");
      checkb "byte count recorded"
        (List.assoc_opt "program_bytes" fields
        = Some (Json.Int (String.length "DO i = 1, k\n  x(i) = i\nENDDO\n")))
  | _ -> Alcotest.fail "to_json is not an object")

let t_write_read () =
  let m = sample () in
  let path = Filename.temp_file "lf_manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Manifest.write path m;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.parse text with
      | Error e -> Alcotest.fail ("written manifest does not parse: " ^ e)
      | Ok j -> (
          match Manifest.of_json j with
          | Ok m' -> checkb "disk round trip" (m = m')
          | Error e -> Alcotest.fail ("written manifest rejected: " ^ e)))

let expect_error what j =
  match Manifest.of_json j with
  | Ok _ -> Alcotest.fail (what ^ ": malformed manifest accepted")
  | Error e -> checkb (what ^ ": error names the problem") (String.length e > 0)

let t_rejects () =
  expect_error "non-object" (Json.Int 3);
  expect_error "empty object" (Json.Obj []);
  (match Manifest.to_json (sample ()) with
  | Json.Obj fields ->
      expect_error "missing engine"
        (Json.Obj (List.remove_assoc "engine" fields));
      expect_error "wrong schema version"
        (Json.Obj
           (("schema", Json.Int 99) :: List.remove_assoc "schema" fields));
      expect_error "jobs not an integer"
        (Json.Obj
           (("jobs", Json.Str "four") :: List.remove_assoc "jobs" fields))
  | _ -> Alcotest.fail "to_json is not an object");
  (* a specific message spot-check so the errors stay actionable *)
  match Manifest.of_json (Json.Obj [ ("schema", Json.Int 1) ]) with
  | Error e -> checks "missing-field message names the field"
      "manifest: missing field \"program\"" e
  | Ok _ -> Alcotest.fail "manifest with only a schema accepted"

(* Regression: non-finite metric values used to serialize as [null],
   so a manifest whose metrics held an inf/nan payload failed its own
   round trip.  They now print as the strings "inf"/"-inf"/"nan", which
   the parser maps back to floats.  NaN never compares equal to itself
   (structural [=]), so equality here is on the serialized form. *)
let t_non_finite () =
  List.iter
    (fun (label, f) ->
      let j = Json.Float f in
      let text = Json.to_string j in
      checkb (label ^ " does not serialize as null")
        (not (String.equal text "null"));
      match Json.parse text with
      | Error e -> Alcotest.fail (label ^ " does not re-parse: " ^ e)
      | Ok j' ->
          checks (label ^ " round-trips") text (Json.to_string j'))
    [
      ("inf", Float.infinity);
      ("-inf", Float.neg_infinity);
      ("nan", Float.nan);
    ];
  let m =
    Manifest.make ~program:"bench.f" ~source:"x = x\n" ~engine:"compiled"
      ~opt:2 ~jobs:1 ~p:8 ~wall_ns:1L ~cpu_s:0.0
      ~metrics:
        (Json.Obj
           [
             ("ratio", Json.Float Float.infinity);
             ("skew", Json.Float Float.nan);
           ])
      ~stats:(Json.Obj [])
  in
  match Manifest.of_json (Manifest.to_json m) with
  | Error e -> Alcotest.fail ("non-finite manifest rejected: " ^ e)
  | Ok m' ->
      checks "manifest with non-finite metrics round-trips"
        (Json.to_string (Manifest.to_json m))
        (Json.to_string (Manifest.to_json m'))

(* The shared writer pieces against the forms they replaced: a
   per-character [String.iter] escape, [string_of_int], and [Printf]. *)
let old_escape s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let old_float_literal f =
  if Float.is_nan f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let via add x =
  let b = Buffer.create 16 in
  add b x;
  Buffer.contents b

let t_writer_pieces () =
  List.iter
    (fun n -> checks (string_of_int n) (string_of_int n) (via Json.add_int n))
    [ 0; 7; 10; 99; -1; -10; 1234567; max_int; min_int; min_int + 1 ];
  List.iter
    (fun s -> checks (Fmt.str "%S" s) (old_escape s) (via Json.escape_string s))
    [ ""; "abc"; "a\"b"; "back\\slash"; "tab\tnl\ncr\r"; "\000\031\127\200" ]

let prop_escape =
  qcheck_test
    (QCheck.Test.make ~count:1000 ~name:"escape_string equals the old escape"
       QCheck.(string_gen QCheck.Gen.char)
       (fun s -> String.equal (old_escape s) (via Json.escape_string s)))

let prop_float_literal =
  qcheck_test
    (QCheck.Test.make ~count:2000 ~name:"float_literal equals the Printf form"
       QCheck.float
       (fun f -> String.equal (old_float_literal f) (Json.float_literal f)))

(* The parser's fast path for escape-free strings keeps every result and
   every error message and offset of the character loop. *)
let t_parse_strings () =
  let parsed s =
    match Json.parse s with
    | Ok j -> "ok " ^ Json.to_string j
    | Error e -> e
  in
  List.iter
    (fun (input, want) -> checks (Fmt.str "%S" input) want (parsed input))
    [
      ({|"abc|}, "unterminated string at offset 4");
      ({|"ab\|}, "unterminated escape at offset 4");
      ({|"a\"b"|}, {|ok "a\"b"|});
      ({|"a\qb"|}, "bad escape \\'q' at offset 3");
      ({|{"k":"v","w":"x\ny"}|}, {|ok {"k":"v","w":"x\ny"}|});
      ({|"\u00|}, "truncated \\u escape at offset 2");
      ({|["a","b\\c",  "d"]|}, {|ok ["a","b\\c","d"]|});
      ({|"x" y|}, "trailing input at offset 4");
      ({|"|}, "unterminated string at offset 1");
      ({|""|}, {|ok ""|});
      ({|"inf"|}, {|ok "inf"|});
    ]

let suite =
  [
    case "JSON round trip" t_round_trip;
    case "non-finite floats survive the round trip" t_non_finite;
    case "program identity: md5 + byte count" t_md5;
    case "disk write/read round trip" t_write_read;
    case "malformed input rejected" t_rejects;
    case "JSON writer pieces equal the old forms" t_writer_pieces;
    prop_escape;
    prop_float_literal;
    case "JSON strings: fast path keeps results and errors" t_parse_strings;
  ]
