(** Fresh-name generation for compiler-introduced variables (guard flags,
    plural induction variables), avoiding every name already used in the
    program being transformed. *)

open Lf_lang

type t = {
  mutable used : string list;
  mutable counter : int;
}

let of_names names = { used = names; counter = 0 }

let block_names b =
  Ast_util.assigned_vars b @ Ast_util.read_vars b
  |> List.sort_uniq String.compare

let of_block b = of_names (block_names b)

let of_program (p : Ast.program) =
  of_names
    (List.map (fun d -> d.Ast.dc_name) p.Ast.p_decls
    @ block_names p.Ast.p_body)

let reserve t name = t.used <- name :: t.used

(** [fresh t base] returns [base] if unused, else [base_1], [base_2], ... *)
let fresh t base =
  if not (List.mem base t.used) then begin
    t.used <- base :: t.used;
    base
  end
  else begin
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if List.mem cand t.used then go (i + 1) else cand
    in
    let name = go 1 in
    t.used <- name :: t.used;
    name
  end
