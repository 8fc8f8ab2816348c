(** Translation validation by interpretation.

    The paper argues (Fig. 10 discussion) that flattening "still executes
    exactly the same instructions in the same order and the same number of
    times."  This module checks that claim dynamically for concrete inputs:
    it runs the original and the transformed block in identical environments
    and compares (a) the final values of all observable variables and (b)
    the observation trace (sequence of external subroutine calls with
    arguments).

    This is the testing backstop behind the transformation passes; the
    static preconditions live in [Flatten.check] / [Lf_analysis]. *)

open Lf_lang

type mismatch =
  | Var_differs of string * Values.value option * Values.value option
  | Obs_length of int * int
  | Obs_differs of int * string * string

let pp_mismatch ppf = function
  | Var_differs (v, a, b) ->
      Fmt.pf ppf "variable %s differs: %a vs %a" v
        (Fmt.option ~none:(Fmt.any "<unset>") Values.pp)
        a
        (Fmt.option ~none:(Fmt.any "<unset>") Values.pp)
        b
  | Obs_length (a, b) -> Fmt.pf ppf "observation counts differ: %d vs %d" a b
  | Obs_differs (i, a, b) ->
      Fmt.pf ppf "observation %d differs: %s vs %s" i a b

type report = {
  ok : bool;
  mismatches : mismatch list;
  steps_original : int;
  steps_transformed : int;
}

let obs_to_string (o : Interp.observation) =
  Fmt.str "%s(%a)" o.Interp.ob_proc
    Fmt.(list ~sep:(any ", ") Values.pp)
    o.Interp.ob_args

(** [compare_runs ~vars ~setup a b] runs blocks [a] and [b] in fresh
    contexts set up by [setup] and compares the variables [vars] and the
    observation traces.  Synthetic variables introduced by the transformer
    (guard flags, auxiliary induction variables) should not be in [vars]. *)
let compare_runs ?(params = []) ?fuel ?(setup = fun _ -> ()) ~(vars : string list)
    (a : Ast.block) (b : Ast.block) : report =
  let run blk =
    let ctx = Interp.run_block ~params ?fuel ~setup blk in
    ctx
  in
  let ca = run a and cb = run b in
  let mism = ref [] in
  List.iter
    (fun v ->
      let va = Env.find_opt ca.Interp.env v
      and vb = Env.find_opt cb.Interp.env v in
      let eq =
        match (va, vb) with
        | Some x, Some y -> Values.equal_value x y
        | None, None -> true
        | _ -> false
      in
      if not eq then mism := Var_differs (v, va, vb) :: !mism)
    vars;
  let oa = Interp.observations ca and ob = Interp.observations cb in
  if List.length oa <> List.length ob then
    mism := Obs_length (List.length oa, List.length ob) :: !mism
  else
    List.iteri
      (fun i (x, y) ->
        let sx = obs_to_string x and sy = obs_to_string y in
        if sx <> sy then mism := Obs_differs (i, sx, sy) :: !mism)
      (List.combine oa ob);
  {
    ok = !mism = [];
    mismatches = List.rev !mism;
    steps_original = ca.Interp.steps;
    steps_transformed = cb.Interp.steps;
  }
