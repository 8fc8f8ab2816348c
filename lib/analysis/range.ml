(** Value-range analysis over the SIMD dialect, instantiated on
    [Dataflow.solve_fix].

    The analysis runs on the original AST (the slot-resolved IR shares
    its statements physically, so results are keyed by statement
    identity) and computes, for every statement, an abstract environment
    mapping variable names to an {b integer interval} with symbolic
    bounds: a bound is either a constant, ±infinity, or [Sym (v, c)] =
    "the value of the front-end integer scalar [v] at this point, plus
    [c]".  Symbolic bounds are what flattened programs need — the guard
    the flattener emits is [WHERE (at1 <= n)] against a runtime-bound
    dimension [n], so the provable upper bound of [at1] inside the
    branch is [n], not a literal.  When the named variable is not bound
    to a front-end integer scalar at run time, a symbolic bound is
    vacuous (reads as ±infinity); consumers resolve bounds against the
    live frame and fall back to checked execution when resolution fails.

    The entry environment binds [iproc] to [[1, p]], which holds only
    while the entry binding of [iproc] is the canonical lane vector; the
    compiled engine validates that once per run before trusting any
    claim ([Compile]'s prologue).

    Interval semantics are over the {e active lanes} of the statement's
    mask context: WHERE / plural-IF branch entries refine the written
    condition into the branch environment (the ELSEWHERE branch meets
    the negation onto the join of the pre-branch environment and the
    THEN exit, since its lanes never executed the THEN branch but do see
    its front-end scalar writes), masked assignments join old and new
    values instead of replacing them, and branch exits re-join the
    pre-branch environment so refinements never leak past the
    construct.  Procedure calls havoc everything (callees can rebind any
    variable through the frame flush/import cycle); registered
    {e functions} cannot write variables, so expression evaluation never
    havocs.  Programs containing GOTO are not analyzed (no facts). *)

open Lf_lang
open Lf_lang.Ast
module SMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)
(* ------------------------------------------------------------------ *)

type bound =
  | NegInf
  | Fin of int
  | Sym of string * int  (** value of scalar [v] at this point, plus c *)
  | PosInf

type iv = {
  lo : bound;
  hi : bound;
}

(** Abstract environment: [Bot] = unreachable; in [Env m] an absent
    binding is top (unconstrained). *)
type env =
  | Bot
  | Env of iv SMap.t

let top_iv = { lo = NegInf; hi = PosInf }

(* ------------------------------------------------------------------ *)
(* Bound arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

let sat_add a b =
  let s = a + b in
  if a > 0 && b > 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / a <> b then if (a > 0) = (b > 0) then max_int else min_int
    else p

(** [b + k] for constant [k]; infinities absorb. *)
let bound_add_k b k =
  match b with
  | NegInf -> NegInf
  | PosInf -> PosInf
  | Fin n -> Fin (sat_add n k)
  | Sym (v, c) -> Sym (v, sat_add c k)

(** Lower-bound addition: [Sym + Sym] is not representable, so it drops
    to -infinity (sound for a lower bound). *)
let add_lo a b =
  match (a, b) with
  | NegInf, _ | _, NegInf -> NegInf
  | PosInf, _ | _, PosInf -> PosInf
  | Fin x, Fin y -> Fin (sat_add x y)
  | Sym (v, c), Fin k | Fin k, Sym (v, c) -> Sym (v, sat_add c k)
  | Sym _, Sym _ -> NegInf

let add_hi a b =
  match (a, b) with
  | PosInf, _ | _, PosInf -> PosInf
  | NegInf, _ | _, NegInf -> NegInf
  | Fin x, Fin y -> Fin (sat_add x y)
  | Sym (v, c), Fin k | Fin k, Sym (v, c) -> Sym (v, sat_add c k)
  | Sym _, Sym _ -> PosInf

(** Negation swaps the roles of the two bounds; a negated symbol is not
    representable. *)
let neg_as_lo = function
  | PosInf -> NegInf
  | NegInf -> PosInf
  | Fin n -> Fin (-n)
  | Sym _ -> NegInf

let neg_as_hi = function
  | PosInf -> NegInf
  | NegInf -> PosInf
  | Fin n -> Fin (-n)
  | Sym _ -> PosInf

(* Join: lower bounds move down, upper bounds move up; incomparable
   bounds (different symbols, or symbol vs constant) drop to infinity. *)
let join_lo a b =
  match (a, b) with
  | NegInf, _ | _, NegInf -> NegInf
  | PosInf, x | x, PosInf -> x
  | Fin x, Fin y -> Fin (min x y)
  | Sym (v, c), Sym (w, d) when v = w -> Sym (v, min c d)
  | _ -> NegInf

let join_hi a b =
  match (a, b) with
  | PosInf, _ | _, PosInf -> PosInf
  | NegInf, x | x, NegInf -> x
  | Fin x, Fin y -> Fin (max x y)
  | Sym (v, c), Sym (w, d) when v = w -> Sym (v, max c d)
  | _ -> PosInf

(* Refinement meet: keep the tighter bound when comparable; when
   incomparable both are individually sound, keep the {e established}
   bound.  Preferring the fresh fact would let a branch refinement
   (e.g. the [x > n] else-arm of a [x <= n] WHERE) clobber a constant
   bound the other arm still carries, and the branch join — which can
   only compare like against like — would then drop to infinity.  The
   symbolic dimension guards bounds-check elimination needs still land:
   a loop-widened bound is infinite by the time the WHERE refinement
   applies, and anything refines an infinity. *)
let meet_lo cur nu =
  match (cur, nu) with
  | _, NegInf -> cur
  | NegInf, _ -> nu
  | Fin a, Fin b -> Fin (max a b)
  | Sym (v, a), Sym (w, b) when v = w -> Sym (v, max a b)
  | _ -> cur

let meet_hi cur nu =
  match (cur, nu) with
  | _, PosInf -> cur
  | PosInf, _ -> nu
  | Fin a, Fin b -> Fin (min a b)
  | Sym (v, a), Sym (w, b) when v = w -> Sym (v, min a b)
  | _ -> cur

let bound_mentions v = function Sym (w, _) -> w = v | _ -> false

let bound_to_string = function
  | NegInf -> "-inf"
  | PosInf -> "+inf"
  | Fin n -> string_of_int n
  | Sym (v, 0) -> v
  | Sym (v, c) -> Printf.sprintf "%s%+d" v c

let iv_to_string i =
  Printf.sprintf "[%s, %s]" (bound_to_string i.lo) (bound_to_string i.hi)

(** [subsumes a b]: interval [a] contains interval [b] (decidable only
    bound-wise; incomparable bounds answer [false]). *)
let lo_le a b =
  (* a <= b as lower bounds *)
  match (a, b) with
  | NegInf, _ -> true
  | _, PosInf -> true
  | Fin x, Fin y -> x <= y
  | Sym (v, c), Sym (w, d) -> v = w && c <= d
  | _ -> false

let hi_ge a b =
  match (a, b) with
  | PosInf, _ -> true
  | _, NegInf -> true
  | Fin x, Fin y -> x >= y
  | Sym (v, c), Sym (w, d) -> v = w && c >= d
  | _ -> false

let subsumes a b = lo_le a.lo b.lo && hi_ge a.hi b.hi

(** Concrete membership of [n], resolving symbolic bounds through
    [resolve] (the current front-end scalar value of a name, when it is
    one); unresolvable and infinite bounds are vacuous. *)
let mem ~(resolve : string -> int option) n i =
  let lo_ok =
    match i.lo with
    | NegInf | PosInf -> true
    | Fin k -> n >= k
    | Sym (v, c) -> (
        match resolve v with Some s -> n >= sat_add s c | None -> true)
  in
  let hi_ok =
    match i.hi with
    | NegInf | PosInf -> true
    | Fin k -> n <= k
    | Sym (v, c) -> (
        match resolve v with Some s -> n <= sat_add s c | None -> true)
  in
  lo_ok && hi_ok

(* ------------------------------------------------------------------ *)
(* Abstract evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let singleton i =
  match (i.lo, i.hi) with Fin x, Fin y when x = y -> Some x | _ -> None

let iv_join a b = { lo = join_lo a.lo b.lo; hi = join_hi a.hi b.hi }

let rec eval (m : iv SMap.t) (e : expr) : iv =
  match e with
  | EInt n -> { lo = Fin n; hi = Fin n }
  | EVar v ->
      (* missing interval sides fall back to the variable's own symbolic
         value: an unconstrained scalar [n] still evaluates to [n, n],
         which is exactly the handle dimension guards resolve later *)
      let a = Option.value (SMap.find_opt v m) ~default:top_iv in
      let lo = match a.lo with NegInf -> Sym (v, 0) | b -> b in
      let hi = match a.hi with PosInf -> Sym (v, 0) | b -> b in
      { lo; hi }
  | EUn (Neg, a) ->
      let x = eval m a in
      { lo = neg_as_lo x.hi; hi = neg_as_hi x.lo }
  | EBin (Add, a, b) ->
      let x = eval m a and y = eval m b in
      { lo = add_lo x.lo y.lo; hi = add_hi x.hi y.hi }
  | EBin (Sub, a, b) -> eval m (EBin (Add, a, EUn (Neg, b)))
  | EBin (Mul, a, b) -> (
      let x = eval m a and y = eval m b in
      match (singleton x, singleton y) with
      | Some k, _ -> scale y k
      | _, Some k -> scale x k
      | _ -> top_iv)
  | EBin (Mod, a, b) -> (
      let x = eval m a in
      match singleton (eval m b) with
      | Some mm when mm > 0 ->
          let nonneg = match x.lo with Fin l -> l >= 0 | _ -> false in
          let hi =
            match x.hi with
            | Fin h when nonneg && h < mm -> Fin h
            | _ -> Fin (mm - 1)
          in
          let lo = if nonneg then Fin 0 else Fin (-(mm - 1)) in
          { lo; hi }
      | _ -> top_iv)
  | ECall (f, [ a ]) when String.lowercase_ascii f = "abs" -> (
      let x = eval m a in
      match (x.lo, x.hi) with
      | Fin l, Fin h when l >= 0 -> { lo = Fin l; hi = Fin h }
      | Fin l, Fin h when h <= 0 -> { lo = Fin (-h); hi = Fin (-l) }
      | Fin l, Fin h -> { lo = Fin 0; hi = Fin (max (-l) h) }
      | _ -> { lo = Fin 0; hi = PosInf })
  | ECall (f, [ a; b ]) when String.lowercase_ascii f = "max" ->
      let x = eval m a and y = eval m b in
      (* lower bound of max: either operand's lower bound is sound; the
         upper bound needs the comparable maximum *)
      let lo =
        match (x.lo, y.lo) with
        | Fin p, Fin q -> Fin (max p q)
        | NegInf, o | o, NegInf -> o
        | o, _ -> o
      in
      { lo; hi = join_hi x.hi y.hi }
  | ECall (f, [ a; b ]) when String.lowercase_ascii f = "min" ->
      let x = eval m a and y = eval m b in
      let hi =
        match (x.hi, y.hi) with
        | Fin p, Fin q -> Fin (min p q)
        | PosInf, o | o, PosInf -> o
        | o, _ -> o
      in
      { lo = join_lo x.lo y.lo; hi }
  | ERange (a, b) ->
      (* a [lo:hi] section of exactly P elements is a plural vector whose
         lane i (1-based) holds lo + i - 1, so every lane lies in
         [lo, hi]; other lengths build front-end arrays *)
      { lo = (eval m a).lo; hi = (eval m b).hi }
  | EReal _ | EBool _ | EUn (Not, _) | EBin _ | ECall _ | EIdx _ -> top_iv

and scale a k =
  if k = 0 then { lo = Fin 0; hi = Fin 0 }
  else
    (* negative factors swap which source bound feeds which result
       bound; an unrepresentable product (Sym * k, k <> 1) must drop
       toward the infinity of the {e result} role — a symbolic lower
       bound scaled up is still a lower bound, so it weakens to -inf,
       never +inf *)
    let lo_src, hi_src = if k > 0 then (a.lo, a.hi) else (a.hi, a.lo) in
    let exact = function
      | Fin n -> Some (Fin (sat_mul n k))
      | Sym _ as b when k = 1 -> Some b
      | NegInf -> Some (if k > 0 then NegInf else PosInf)
      | PosInf -> Some (if k > 0 then PosInf else NegInf)
      | Sym _ -> None
    in
    let lo = match exact lo_src with Some b -> b | None -> NegInf in
    let hi = match exact hi_src with Some b -> b | None -> PosInf in
    { lo; hi }

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

let map_join m1 m2 =
  SMap.merge
    (fun _ a b ->
      match (a, b) with
      | Some x, Some y ->
          let j = iv_join x y in
          if j = top_iv then None else Some j
      | _ -> None (* absent = top; top joins to top *))
    m1 m2

let env_join e1 e2 =
  match (e1, e2) with
  | Bot, e | e, Bot -> e
  | Env m1, Env m2 -> Env (map_join m1 m2)

let env_equal e1 e2 =
  match (e1, e2) with
  | Bot, Bot -> true
  | Env m1, Env m2 -> SMap.equal ( = ) m1 m2
  | _ -> false

let widen_bound_lo old nu = if old = nu then nu else NegInf
let widen_bound_hi old nu = if old = nu then nu else PosInf

(* Widening: any interval bound still moving after the visit budget
   jumps to infinity. *)
let env_widen old nu =
  match (old, nu) with
  | Bot, e | e, Bot -> e
  | Env mo, Env mn ->
      Env
        (SMap.merge
           (fun _ a b ->
             match (a, b) with
             | Some x, Some y ->
                 let w =
                   {
                     lo = widen_bound_lo x.lo y.lo;
                     hi = widen_bound_hi x.hi y.hi;
                   }
                 in
                 if w = top_iv then None else Some w
             | _ -> None)
           mo mn)

let strip_self v a =
  {
    lo = (if bound_mentions v a.lo then NegInf else a.lo);
    hi = (if bound_mentions v a.hi then PosInf else a.hi);
  }

(** Drop every symbolic bound that mentions [v]: its recorded value is
    about to change, so bounds naming it would silently shift meaning. *)
let kill_sym v m =
  SMap.filter_map
    (fun _ a ->
      let a = strip_self v a in
      if a = top_iv then None else Some a)
    m

let set_var m v a = if a = top_iv then SMap.remove v m else SMap.add v a m

(* ------------------------------------------------------------------ *)
(* Condition refinement                                                *)
(* ------------------------------------------------------------------ *)

let negate_rel = function
  | Le -> Some Gt
  | Lt -> Some Ge
  | Ge -> Some Lt
  | Gt -> Some Le
  | Ne -> Some Eq
  | Eq -> None (* != gives no interval *)
  | _ -> None

let flip_rel = function
  | Le -> Ge
  | Lt -> Gt
  | Ge -> Le
  | Gt -> Lt
  | r -> r

(* Refine [v rel e] into the environment.  Bounds are taken from the
   abstract value of [e]; self-referential symbolic bounds are skipped
   (they would change meaning when [v] is next written). *)
let refine_var m v rel e =
  let x = eval m e in
  let cur = Option.value (SMap.find_opt v m) ~default:top_iv in
  let keep b = if bound_mentions v b then None else Some b in
  let refined =
    match rel with
    | Le | Lt ->
        let hi = if rel = Lt then bound_add_k x.hi (-1) else x.hi in
        Option.map (fun h -> { cur with hi = meet_hi cur.hi h }) (keep hi)
    | Ge | Gt ->
        let lo = if rel = Gt then bound_add_k x.lo 1 else x.lo in
        Option.map (fun l -> { cur with lo = meet_lo cur.lo l }) (keep lo)
    | Eq ->
        let lo = keep x.lo and hi = keep x.hi in
        Some
          {
            lo = (match lo with Some l -> meet_lo cur.lo l | None -> cur.lo);
            hi = (match hi with Some h -> meet_hi cur.hi h | None -> cur.hi);
          }
    | _ -> None
  in
  match refined with Some a -> set_var m v a | None -> m

let rec assume m cond neg =
  match cond with
  | EUn (Not, c) -> assume m c (not neg)
  | EBin (And, a, b) when not neg -> assume (assume m a false) b false
  | EBin (Or, a, b) when neg -> assume (assume m a true) b true
  | EBin (rel, a, b) -> (
      let rel = if neg then negate_rel rel else Some rel in
      match rel with
      | None -> m
      | Some rel ->
          let m =
            match a with EVar v -> refine_var m v rel b | _ -> m
          in
          (match b with EVar v -> refine_var m v (flip_rel rel) a | _ -> m))
  | _ -> m

(* ------------------------------------------------------------------ *)
(* Transfer functions and graph construction                           *)
(* ------------------------------------------------------------------ *)

type tr =
  | TNone
  | TAssign of lvalue * expr * bool  (** masked context *)
  | TAssume of expr * bool  (** negated *)
  | THavoc
  | THead of do_control

let transfer_assign m lv e masked =
  let v = lv.lv_name in
  if lv.lv_index <> [] then
    (* array-element store: the name's scalar binding is untouched, but
       recorded symbolic bounds naming it are dropped for safety *)
    kill_sym v m
  else
    let nu = strip_self v (eval m e) in
    let nu =
      if masked then
        iv_join (Option.value (SMap.find_opt v m) ~default:top_iv) nu
      else nu
    in
    set_var (kill_sym v m) v nu

(* DO var = lo, hi [, step]: over all iterations the variable spans the
   hull of the bounds, including the final overshoot value (the compiled
   engine leaves [first value past the limit] in the variable; a loop
   whose range is empty leaves [lo]). *)
let transfer_head m (dc : do_control) =
  let v = dc.d_var in
  let m' = kill_sym v m in
  let lo = eval m dc.d_lo and hi = eval m dc.d_hi in
  let step =
    match dc.d_step with
    | None -> Some 1
    | Some se -> singleton (eval m se)
  in
  let a =
    match step with
    | Some k when k > 0 ->
        { lo = lo.lo; hi = join_hi (bound_add_k hi.hi k) lo.hi }
    | Some k when k < 0 ->
        { lo = join_lo (bound_add_k hi.lo k) lo.lo; hi = lo.hi }
    | _ -> top_iv
  in
  set_var m' v (strip_self v a)

let apply_tr t e =
  match e with
  | Bot -> Bot
  | Env m -> (
      match t with
      | TNone -> e
      | TAssign (lv, rhs, masked) -> Env (transfer_assign m lv rhs masked)
      | TAssume (c, neg) -> Env (assume m c neg)
      | THavoc -> Env SMap.empty
      | THead dc -> Env (transfer_head m dc))

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

type result = {
  r_envs : (stmt * env) list;
      (** IN-environment per statement, keyed by physical identity *)
}

let rec has_goto_stmt = function
  | SGoto _ | SCondGoto _ | SLabel _ -> true
  | SLoc (_, s) -> has_goto_stmt s
  | SIf (_, t, f) | SWhere (_, t, f) -> has_goto t || has_goto f
  | SWhile (_, b) | SDoWhile (b, _) | SDo (_, b) | SForall (_, b) ->
      has_goto b
  | SAssign _ | SCall _ | SComment _ -> false

and has_goto b = List.exists has_goto_stmt b

let analyze ~p (block : Ast.block) : result =
  if has_goto block then { r_envs = [] }
  else begin
    let trs = ref [] and nn = ref 0 in
    let edges = ref [] in
    let keyed = ref [] in
    let add t =
      let id = !nn in
      incr nn;
      trs := t :: !trs;
      id
    in
    let edge a b = edges := (a, b) :: !edges in
    let connect ins n = List.iter (fun i -> edge i n) ins in
    let record s n = keyed := (s, n) :: !keyed in
    let rec walk_block ~masked ins b =
      List.fold_left (fun ins s -> walk_stmt ~masked ins s) ins b
    and walk_stmt ~masked ins s =
      match s with
      | SLoc (_, inner) -> walk_stmt ~masked ins inner
      | SComment _ -> ins
      | SGoto _ | SCondGoto _ | SLabel _ -> assert false
      | SAssign (lv, e) ->
          let n = add (TAssign (lv, e, masked)) in
          connect ins n;
          record s n;
          [ n ]
      | SCall _ ->
          let n = add THavoc in
          connect ins n;
          record s n;
          [ n ]
      | SIf (c, t, f) | SWhere (c, t, f) ->
          let tst = add TNone in
          connect ins tst;
          record s tst;
          (* THEN lanes satisfy the condition *)
          let at = add (TAssume (c, false)) in
          edge tst at;
          let touts = walk_block ~masked:true [ at ] t in
          (* ELSEWHERE lanes satisfy the negation, never executed the
             THEN branch (join with the pre-branch environment), but do
             see its front-end scalar writes (join with the THEN exit) *)
          let af = add (TAssume (c, true)) in
          edge tst af;
          connect touts af;
          let fouts = walk_block ~masked:true [ af ] f in
          (* exit: refinements cancel against the pre-branch state *)
          let j = add TNone in
          connect (tst :: fouts) j;
          [ j ]
      | SWhile (c, body) ->
          let tst = add TNone in
          connect ins tst;
          record s tst;
          (* the vector-controlled WHILE requires active lanes to agree
             on the condition, so on entry it holds on all of them *)
          let at = add (TAssume (c, false)) in
          edge tst at;
          let bouts = walk_block ~masked [ at ] body in
          connect bouts tst;
          let ax = add (TAssume (c, true)) in
          edge tst ax;
          [ ax ]
      | SDoWhile (body, c) ->
          let h = add TNone in
          connect ins h;
          let bouts = walk_block ~masked [ h ] body in
          (* the condition is evaluated after the body, so the recorded
             environment joins the body exits, not the loop head *)
          let cn = add TNone in
          connect bouts cn;
          record s cn;
          let at = add (TAssume (c, false)) in
          edge cn at;
          edge at h;
          let ax = add (TAssume (c, true)) in
          edge cn ax;
          [ ax ]
      | SDo (dc, body) | SForall (dc, body) ->
          let h = add (THead dc) in
          connect ins h;
          record s h;
          let bouts = walk_block ~masked [ h ] body in
          connect bouts h;
          [ h ]
    in
    let entry = add TNone in
    let _outs = walk_block ~masked:false [ entry ] block in
    let nnodes = !nn in
    let trs = Array.of_list (List.rev !trs) in
    let succs = Array.make nnodes [] in
    List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) !edges;
    let init = Env (SMap.singleton "iproc" { lo = Fin 1; hi = Fin p }) in
    let fp =
      Dataflow.solve_fix ~nnodes ~succs ~entry ~init ~bottom:Bot
        ~join:env_join ~equal:env_equal
        ~transfer:(fun i e -> apply_tr trs.(i) e)
        ~widen:env_widen ~widen_after:3 ()
    in
    (* Decreasing iteration.  Chaotic iteration join-accumulates each
       node's output across loop visits, so a guard refinement that
       only becomes available after widening (e.g. [at1 <= n] giving
       [hi = Sym n]) is merged with the finite bounds of earlier
       visits — incomparable, hence infinity — and lost.  Re-running
       the transfers a few bounded rounds from the converged solution,
       without accumulation, recovers those refinements.  Every round
       remains a sound over-approximation of the reachable states:
       the previous round's outputs cover all predecessor exit states
       and each transfer is sound, so stopping after any round
       (converged or not) is safe. *)
    let preds = Array.make nnodes [] in
    Array.iteri
      (fun a bs -> List.iter (fun b -> preds.(b) <- a :: preds.(b)) bs)
      succs;
    let out = Array.copy fp.fp_out in
    let fin = Array.make nnodes Bot in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 8 do
      incr rounds;
      changed := false;
      for i = 0 to nnodes - 1 do
        let input =
          List.fold_left
            (fun acc q -> env_join acc out.(q))
            (if i = entry then init else Bot)
            preds.(i)
        in
        fin.(i) <- input;
        let o = apply_tr trs.(i) input in
        if not (env_equal o out.(i)) then begin
          out.(i) <- o;
          changed := true
        end
      done
    done;
    { r_envs = List.map (fun (s, n) -> (s, fin.(n))) !keyed }
  end

(** Interval of [e] at the program point just before [stmt] (physical
    identity); [None] when the statement is unknown to the analysis or
    unreachable. *)
let eval_at (r : result) (stmt : Ast.stmt) (e : expr) : iv option =
  let rec find = function
    | [] -> None
    | (s, env) :: rest -> if s == stmt then Some env else find rest
  in
  match find r.r_envs with
  | Some (Env m) -> Some (eval m e)
  | Some Bot | None -> None
