(** Data-dependence testing for loop parallelization.

    Loop flattening is safe when the loop receiving the inner body can be
    run in parallel (paper §6: "A sufficient condition is that the loop into
    which we lift an inner loop body can be parallelized").  This module
    provides the classical subscript tests used to decide that condition:
    affine-subscript extraction, the ZIV test, and the strong-SIV test with
    dependence distances; everything else is answered conservatively.

    The reference point is the Fortran D / ParaScope analysis the paper
    cites [13, 14]; we implement the standard single-subscript fragment. *)

open Lf_lang
open Lf_lang.Ast

(** A subscript expression in canonical affine form with respect to one
    loop variable: [coeff * var + const + sym], where [sym] is an optional
    loop-invariant symbolic remainder (kept as an expression and compared
    structurally). *)
type affine = {
  coeff : int;
  const : int;
  sym : expr option;
}

let pp_affine ppf a =
  Fmt.pf ppf "%d*i + %d%a" a.coeff a.const
    (Fmt.option (fun ppf e -> Fmt.pf ppf " + %s" (Pretty.expr_to_string e)))
    a.sym

let affine_const c = { coeff = 0; const = c; sym = None }

let add_sym s1 s2 =
  match (s1, s2) with
  | None, s | s, None -> (s, true)
  | Some a, Some b -> (Some (EBin (Add, a, b)), true)

(** [extract var invariants e] puts [e] into affine form with respect to
    [var].  Variables listed in [invariants] (and any variable other than
    [var] that is not assigned in the loop — the caller decides) may appear
    in the symbolic part.  Returns [None] for non-affine forms (products of
    [var], indexing through [var], calls involving [var]...). *)
let rec extract var (invariant : string -> bool) (e : expr) : affine option =
  match e with
  | EInt n -> Some (affine_const n)
  | EVar v when v = var -> Some { coeff = 1; const = 0; sym = None }
  | EVar v when invariant v -> Some { coeff = 0; const = 0; sym = Some e }
  | EUn (Neg, a) ->
      Option.map
        (fun x ->
          {
            coeff = -x.coeff;
            const = -x.const;
            sym = Option.map (fun s -> EUn (Neg, s)) x.sym;
          })
        (extract var invariant a)
  | EBin (Add, a, b) -> (
      match (extract var invariant a, extract var invariant b) with
      | Some x, Some y ->
          let sym, _ = add_sym x.sym y.sym in
          Some { coeff = x.coeff + y.coeff; const = x.const + y.const; sym }
      | _ -> None)
  | EBin (Sub, a, b) ->
      extract var invariant (EBin (Add, a, EUn (Neg, b)))
  | EBin (Mul, EInt n, b) | EBin (Mul, b, EInt n) ->
      Option.map
        (fun x ->
          {
            coeff = n * x.coeff;
            const = n * x.const;
            sym = Option.map (fun s -> EBin (Mul, EInt n, s)) x.sym;
          })
        (extract var invariant b)
  | EIdx _ | ECall _ ->
      (* loop-invariant lookup tables are allowed in the symbolic part *)
      let vars = Ast_util.expr_vars e in
      if List.mem var vars then None
      else if List.for_all invariant vars then
        Some { coeff = 0; const = 0; sym = Some e }
      else None
  | e ->
      let vars = Ast_util.expr_vars e in
      if List.mem var vars then None
      else if List.for_all invariant vars then
        Some { coeff = 0; const = 0; sym = Some e }
      else None

let sym_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | Some _, None | None, Some _ -> false

(** Result of a dependence test between two subscripts of the same array
    dimension. *)
type verdict =
  | Independent  (** never the same element across different iterations *)
  | Distance of int  (** dependence with this constant iteration distance *)
  | Unknown  (** assume dependence *)

let pp_verdict ppf = function
  | Independent -> Fmt.string ppf "independent"
  | Distance d -> Fmt.pf ppf "distance %d" d
  | Unknown -> Fmt.string ppf "unknown"

(** Test one subscript pair in one dimension.  [a] is the subscript of the
    first reference, [b] of the second, both affine in the shared loop
    variable.  [bounds], when known, is the constant iteration range
    [(lo, hi)] of the loop; the weak SIV tests use it to discard solutions
    outside the iteration space. *)
let siv_test ?bounds (a : affine) (b : affine) : verdict =
  let in_bounds i =
    match bounds with Some (lo, hi) -> lo <= i && i <= hi | None -> true
  in
  if not (sym_equal a.sym b.sym) then Unknown
  else if a.coeff = 0 && b.coeff = 0 then
    (* ZIV: constants — equal constants touch the same element in every
       iteration (distance unconstrained), different never collide *)
    if a.const = b.const then Unknown else Independent
  else if a.coeff = b.coeff then begin
    (* strong SIV: a*i1 + c1 = a*i2 + c2  =>  i1 - i2 = (c2 - c1)/a *)
    let diff = b.const - a.const in
    if diff mod a.coeff = 0 then Distance (diff / a.coeff) else Independent
  end
  else if a.coeff = 0 || b.coeff = 0 then begin
    (* weak-zero SIV: c*i + c1 = c2 — the invariant reference collides
       with exactly one iteration, i = (c2 - c1)/c; independent when that
       solution is fractional or outside the iteration space *)
    let c, c1, c2 =
      if b.coeff = 0 then (a.coeff, a.const, b.const)
      else (b.coeff, b.const, a.const)
    in
    let diff = c2 - c1 in
    if diff mod c <> 0 then Independent
    else if not (in_bounds (diff / c)) then Independent
    else Unknown
  end
  else if a.coeff = -b.coeff then begin
    (* weak-crossing SIV: a*i1 + c1 = -a*i2 + c2  =>  i1 + i2 = (c2-c1)/a;
       independent when the required sum is fractional or cannot be formed
       by two iterations, i.e. lies outside [2*lo, 2*hi] *)
    let diff = b.const - a.const in
    if diff mod a.coeff <> 0 then Independent
    else
      let sum = diff / a.coeff in
      match bounds with
      | Some (lo, hi) when sum < (2 * lo) || sum > (2 * hi) -> Independent
      | _ -> Unknown
  end
  else begin
    (* general MIV territory: fall back to a GCD feasibility test *)
    let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
    let g = gcd a.coeff b.coeff in
    if g <> 0 && (b.const - a.const) mod g <> 0 then Independent else Unknown
  end

(** Combine per-dimension verdicts for one reference pair: the pair is
    independent if any dimension proves independence; otherwise the most
    precise common distance is reported. *)
let combine (vs : verdict list) : verdict =
  if List.mem Independent vs then Independent
  else
    let distances =
      List.filter_map (function Distance d -> Some d | _ -> None) vs
    in
    match distances with
    | [] -> Unknown
    | d :: rest ->
        if List.for_all (( = ) d) rest then Distance d
        else if List.exists (fun d' -> d' <> d) rest then
          (* contradictory required distances: no common solution *)
          Independent
        else Unknown

(** An array reference: name, subscripts, and whether it writes. *)
type ref_info = {
  r_array : string;
  r_subs : expr list;
  r_is_write : bool;
}

(** Array references read by one expression. *)
let expr_references (e : expr) : ref_info list =
  Ast_util.fold_expr
    (fun acc -> function
      | EIdx (a, subs) ->
          { r_array = a; r_subs = subs; r_is_write = false } :: acc
      | _ -> acc)
    [] e
  |> List.rev

(** Collect all array references in a block (reads and writes). *)
let references (b : block) : ref_info list =
  let refs = ref [] in
  let expr_refs (e : expr) =
    Ast_util.fold_expr
      (fun () -> function
        | EIdx (a, subs) ->
            refs := { r_array = a; r_subs = subs; r_is_write = false } :: !refs
        | _ -> ())
      () e
  in
  let stmt_collect _ s =
    match s with
    | SAssign (l, e) ->
        if l.lv_index <> [] then
          refs :=
            { r_array = l.lv_name; r_subs = l.lv_index; r_is_write = true }
            :: !refs;
        List.iter expr_refs l.lv_index;
        expr_refs e
    | SDo (c, _) | SForall (c, _) ->
        expr_refs c.d_lo;
        expr_refs c.d_hi;
        Option.iter expr_refs c.d_step
    | SWhile (e, _) | SDoWhile (_, e) | SIf (e, _, _) | SWhere (e, _, _)
    | SCondGoto (e, _) ->
        expr_refs e
    | SCall (_, args) -> List.iter expr_refs args
    | SGoto _ | SLabel _ | SComment _ | SLoc _ -> ()
  in
  Ast_util.fold_stmts stmt_collect () b;
  List.rev !refs

(** The affine forms of [r]'s subscripts with respect to [var] ([None]
    where a subscript is not affine). *)
let forms var invariant (r : ref_info) : affine option list =
  List.map (extract var invariant) r.r_subs

(** The loop-carried verdict for two references to the same array, at
    least one a write, given their subscripts' affine forms: [None] when
    the pair cannot touch the same element in different iterations
    (proven independent, or dependence distance 0), and [Some v] with the
    offending verdict otherwise.  The one place the pair verdict is
    decided. *)
let forms_conflict ?bounds (f1 : affine option list) (f2 : affine option list)
    : verdict option =
  if List.length f1 <> List.length f2 then Some Unknown
  else
    let verdicts =
      List.map2
        (fun a b ->
          match (a, b) with
          | Some a, Some b -> siv_test ?bounds a b
          | _ -> Unknown)
        f1 f2
    in
    match combine verdicts with
    | Independent -> None
    | Distance 0 -> None (* same iteration only *)
    | (Distance _ | Unknown) as v -> Some v

(** [refs_conflict ?bounds var invariant r1 r2] — the loop-carried verdict
    for one pair of references: [None] when the pair cannot touch the same
    element in different iterations of the loop over [var] (different
    arrays, no write, proven independent, or dependence distance 0), and
    [Some v] with the offending verdict otherwise. *)
let refs_conflict ?bounds var invariant (r1 : ref_info) (r2 : ref_info) :
    verdict option =
  if not (r1.r_array = r2.r_array && (r1.r_is_write || r2.r_is_write)) then
    None
  else forms_conflict ?bounds (forms var invariant r1) (forms var invariant r2)

(** One distinct reference — an (array, subscripts, is-write) key — of a
    reference list, with the payload of its first occurrence and that
    occurrence's position in the list. *)
type 'a distinct = {
  d_ref : ref_info;
  d_first : 'a;
  d_pos : int;
}

(** [group_refs refs] — the distinct references of [refs], one array
    per group, each group in first-occurrence order.  Repeats of a key
    add nothing to a pair scan: a verdict depends only on the two keys,
    and a repeated write is covered by testing the key against itself. *)
let group_refs (refs : (ref_info * 'a) list) : 'a distinct array list =
  let seen = Hashtbl.create 64 in
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun pos ((r : ref_info), payload) ->
      let key = (r.r_array, r.r_subs, r.r_is_write) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let d = { d_ref = r; d_first = payload; d_pos = pos } in
        match Hashtbl.find_opt groups r.r_array with
        | Some g -> g := d :: !g
        | None ->
            Hashtbl.add groups r.r_array (ref [ d ]);
            order := r.r_array :: !order
      end)
    refs;
  List.rev_map
    (fun a -> Array.of_list (List.rev !(Hashtbl.find groups a)))
    !order

(** [group_conflict ?bounds var invariant g] — the first loop-carried
    conflict of one group in source order, as [(d1, d2, v)]: [d1] is the
    earliest reference that conflicts with itself (a write, [d2 == d1])
    or with a later reference, [d2] the earliest such later reference.
    This is the pair an all-pairs scan in source order reports first. *)
let group_conflict ?bounds var invariant (g : 'a distinct array) :
    ('a distinct * 'a distinct * verdict) option =
  if not (Array.exists (fun d -> d.d_ref.r_is_write) g) then None
  else
    let fs = Array.map (fun d -> forms var invariant d.d_ref) g in
    let n = Array.length g in
    let rec later i j =
      if j >= n then None
      else if not (g.(i).d_ref.r_is_write || g.(j).d_ref.r_is_write) then
        later i (j + 1)
      else
        match forms_conflict ?bounds fs.(i) fs.(j) with
        | Some v -> Some (g.(i), g.(j), v)
        | None -> later i (j + 1)
    in
    let rec from i =
      if i >= n then None
      else
        let self =
          if g.(i).d_ref.r_is_write then later i i else later i (i + 1)
        in
        match self with Some _ -> self | None -> from (i + 1)
    in
    from 0

(** [loop_carried_array_dependence var invariant body] — true when some
    pair of references to the same array (at least one a write) may touch
    the same element in *different* iterations of the loop over [var]. *)
let loop_carried_array_dependence ?bounds var invariant (body : block) : bool =
  references body
  |> List.map (fun r -> (r, ()))
  |> group_refs
  |> List.exists (fun g -> group_conflict ?bounds var invariant g <> None)
