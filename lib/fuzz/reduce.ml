(** Delta-debugging reducer.

    Greedy fixpoint minimization over the same slot numbering the
    mutator uses: try dropping each statement, splicing each compound
    statement's body in its place, hoisting each subexpression over its
    parent operator, and collapsing each expression to a literal —
    accepting a candidate only when it is strictly smaller (statement
    count first, expression nodes second — strict decrease is what
    guarantees termination) {e and} the caller's [still_fails] predicate
    still holds.  Every accepted candidate restarts the scan, so the result
    is 1-minimal with respect to the candidate set, bounded by
    [max_checks] oracle replays. *)

open Lf_lang

let with_body (i : Input.t) b =
  { i with Input.prog = { i.Input.prog with Ast.p_body = b } }

let measure (i : Input.t) =
  ( Mutate.count_stmts i.Input.prog.Ast.p_body,
    Mutate.count_exprs i.Input.prog.Ast.p_body )

(* Candidate blocks, cheapest-win first: statement deletions shed the
   most weight, then body splices, then expression surgery. *)
let candidates (i : Input.t) : Ast.block Seq.t =
  let b = i.Input.prog.Ast.p_body in
  let ns = Mutate.count_stmts b in
  let ne = Mutate.count_exprs b in
  let deletions = Seq.init ns (fun k -> Mutate.edit_nth k (fun _ -> []) b) in
  let splices =
    Seq.init ns (fun k ->
        Mutate.edit_nth k
          (fun s ->
            match Mutate.unwrap_stmt s with Some body -> body | None -> [ s ])
          b)
  in
  let hoists =
    Seq.init ne (fun k ->
        Mutate.map_nth_expr k
          (fun e ->
            match e with
            | Ast.EBin (_, a, _) | Ast.EUn (_, a) | Ast.ERange (a, _)
            | Ast.ECall (_, a :: _)
            | Ast.EIdx (_, a :: _) ->
                a
            | e -> e)
          b)
  in
  let literals =
    Seq.concat_map
      (fun lit -> Seq.init ne (fun k -> Mutate.map_nth_expr k (fun _ -> lit) b))
      (List.to_seq [ Ast.EInt 1; Ast.EBool true ])
  in
  Seq.concat
    (List.to_seq [ deletions; splices; hoists; literals ])

(** [minimize ~still_fails i] returns the smallest input found such
    that [still_fails] holds (the caller's "fails the same oracle"
    predicate).  [still_fails i] itself is assumed true on entry. *)
let minimize ?(max_checks = 800) ~(still_fails : Input.t -> bool)
    (i0 : Input.t) : Input.t =
  let checks = ref 0 in
  let rec improve cur =
    let mcur = measure cur in
    let rec scan seq =
      if !checks >= max_checks then None
      else
        match Seq.uncons seq with
        | None -> None
        | Some (b, rest) ->
            let cand = with_body cur b in
            if measure cand < mcur then begin
              incr checks;
              if still_fails cand then Some cand else scan rest
            end
            else scan rest
    in
    match scan (candidates cur) with
    | Some better -> improve better
    | None -> cur
  in
  improve i0
