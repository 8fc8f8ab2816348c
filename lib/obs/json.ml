(** A minimal JSON tree, printer and parser.

    The observability layer emits JSON (metrics dumps, occupancy
    timelines, Chrome trace events) and the smoke tests validate that the
    emitted files parse back; the sealed environment has no JSON library,
    so this module provides just enough of one.  Printing is
    deterministic (object fields keep insertion order) and the parser
    accepts exactly the JSON this printer can produce plus ordinary
    whitespace, which is all the validation needs.

    The printing pieces ([escape_string], [add_int], [float_literal],
    [stream]) are shared with writers that stream a document straight
    from their own data, as [Ir.write_json] does, byte-compatible with
    printing the equivalent tree. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec escape_from b s i =
  if i < String.length s then begin
    (match String.unsafe_get s i with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char b c);
    escape_from b s (i + 1)
  end

(** Append [s] as a JSON string literal; a string with nothing to escape
    is copied whole. *)
let escape_string b s =
  Buffer.add_char b '"';
  if String.exists needs_escape s then escape_from b s 0
  else Buffer.add_string b s;
  Buffer.add_char b '"'

(** Append [n] in decimal, as [string_of_int] spells it, without an
    intermediate string. *)
let rec add_int b n =
  if n < 0 && n > min_int then begin
    Buffer.add_char b '-';
    add_int b (-n)
  end
  else if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* The C formatter behind [Printf]'s [%f] and [%g]: the same text, without
   building a format closure per number. *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON has no NaN/infinity literals.  Mapping them to null (the old
   behavior) is lossy: the empty-mask reduction identities (minval =
   +inf, maxval = -inf) stopped round-tripping through Manifest.of_json
   and broke jsonlint --cmp-ignoring equality.  Encode them as the
   string forms "inf"/"-inf"/"nan" instead; the parser maps exactly
   those three strings back to Float. *)
let float_literal f =
  if Float.is_nan f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else if Float.is_integer f && Float.abs f < 1e16 then format_float "%.1f" f
  else format_float "%.12g" f

(* [spill b] runs after every list item and object field: [to_channel]
   drains the buffer there, so a large document never sits whole in
   memory. *)
let write ~spill b j =
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int n -> add_int b n
    | Float f -> Buffer.add_string b (float_literal f)
    | Str s -> escape_string b s
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x;
            spill b)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            go v;
            spill b)
          fields;
        Buffer.add_char b '}'
  in
  go j

let to_string j =
  let b = Buffer.create 256 in
  write ~spill:ignore b j;
  Buffer.contents b

(** [stream oc write] runs [write ~spill b] on a fresh buffer [b] and
    sends its bytes to [oc]: [write] calls [spill b] at its item
    boundaries, which drains the buffer whenever it holds 64 KB. *)
let stream oc write =
  let b = Buffer.create 65536 in
  let spill b =
    if Buffer.length b >= 65536 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  write ~spill b;
  Buffer.output_buffer oc b

let to_channel oc j = stream oc (fun ~spill b -> write ~spill b j)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_escaped () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'b' -> Buffer.add_char b '\b'; incr pos
               | 'f' -> Buffer.add_char b '\012'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   (match int_of_string_opt ("0x" ^ hex) with
                   | None -> fail "bad \\u escape"
                   | Some code ->
                       (* ASCII only; anything else round-trips as '?' *)
                       Buffer.add_char b
                         (if code < 0x80 then Char.chr code else '?');
                       pos := !pos + 5)
               | c -> fail (Printf.sprintf "bad escape \\%C" c));
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  (* Fast path: a string with no backslash before its closing quote is
     one [String.sub]; anything else (an escape, or no closing quote)
     takes the character loop from the start, with the same errors. *)
  let parse_string () =
    expect '"';
    let stop = ref !pos in
    while !stop < n && s.[!stop] <> '"' && s.[!stop] <> '\\' do
      incr stop
    done;
    if !stop < n && s.[!stop] = '"' then begin
      let text = String.sub s !pos (!stop - !pos) in
      pos := !stop + 1;
      text
    end
    else parse_escaped ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "malformed number";
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; fields_loop ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; List [] end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; items_loop ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> (
        (* The string spellings of the non-finite floats parse back to
           [Float], inverting [float_literal]; every other string stays
           [Str].  A field whose value is genuinely the text "inf" is
           indistinguishable by design — the encoding trades that corner
           for lossless numeric round-trips. *)
        match parse_string () with
        | "inf" -> Float Float.infinity
        | "-inf" -> Float Float.neg_infinity
        | "nan" -> Float Float.nan
        | s -> Str s)
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* Accessors used by the tests and report code. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_list = function List l -> Some l | _ -> None
