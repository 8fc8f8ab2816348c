(** One fuzz input: a mini-Fortran program tagged with the dialect it
    belongs to, which decides the oracle battery and the runtime
    environment it executes in.

    - [Simd]: the F90simd dialect of [Lf_testgen.Gen.simd_prog_gen] —
      plural arithmetic over [iproc] in the standard environment bound
      by [Gen.simd_prog_setup] (globals [g]/[h], per-lane [f], scalar
      [n]).  Checked by the cross-engine/-O differential oracles.
    - [Nest]: front-end loop nests over the standard [k]/[l]/[x]/[acc]
      environment (see [Oracle.nest_setup]).  Checked by the
      flatten/coalesce translation-validation oracles.

    Inputs persist as plain source files; the first line is a header
    comment (skipped by the lexer, so the file body parses as-is):

    {v ! simdfuzz dialect=simd v} *)

open Lf_lang

type dialect = Simd | Nest

type t = {
  dialect : dialect;
  prog : Ast.program;
}

let dialect_to_string = function Simd -> "simd" | Nest -> "nest"

let make dialect prog = { dialect; prog = Ast.strip_locs_program prog }

(** Number of statements, at every nesting level (comments and labels
    excluded — they carry no behaviour).  This is the measure the
    reducer shrinks and the acceptance bound ("<= 10 statements") is
    stated in. *)
let rec block_stmts (b : Ast.block) =
  List.fold_left (fun n s -> n + stmt_stmts s) 0 b

and stmt_stmts s =
  match Ast.strip_loc s with
  | Ast.SComment _ | Ast.SLabel _ -> 0
  | Ast.SDo (_, b) | Ast.SWhile (_, b) | Ast.SDoWhile (b, _)
  | Ast.SForall (_, b) ->
      1 + block_stmts b
  | Ast.SIf (_, t, f) | Ast.SWhere (_, t, f) ->
      1 + block_stmts t + block_stmts f
  | _ -> 1

let stmt_count i = block_stmts i.prog.Ast.p_body

let to_string i =
  Fmt.str "! simdfuzz dialect=%s@\n%s"
    (dialect_to_string i.dialect)
    (Pretty.program_to_string i.prog)

let parse_header line =
  let fields = String.split_on_char ' ' line in
  let find key =
    List.find_map
      (fun f ->
        match String.index_opt f '=' with
        | Some eq when String.sub f 0 eq = key ->
            Some (String.sub f (eq + 1) (String.length f - eq - 1))
        | _ -> None)
      fields
  in
  match find "dialect" with
  | Some "nest" -> Nest
  | _ -> Simd

let of_string ?(name = "<string>") src : (t, string) result =
  let dialect =
    match String.index_opt src '\n' with
    | Some nl when String.length src > 10 && String.sub src 0 10 = "! simdfuzz"
      ->
        parse_header (String.sub src 0 nl)
    | _ -> Simd
  in
  (* the header is a comment: the lexer skips it, so the whole file
     parses unchanged *)
  match Parser.program_of_string src with
  | prog -> Ok (make dialect prog)
  | exception e -> Error (Fmt.str "%s: %s" name (Errors.to_message e))

let of_file path : (t, string) result =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  of_string ~name:path src

let to_file path i =
  let oc = open_out path in
  output_string oc (to_string i);
  close_out oc
