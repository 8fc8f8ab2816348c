(** Dependence-analysis tests: affine extraction, ZIV/SIV verdicts, and
    loop-carried array dependence decisions. *)

open Helpers
open Lf_lang
module D = Lf_analysis.Depend

let inv_all _ = true
let inv_none _ = false

let extract s = D.extract "i" inv_all (parse_expr s)

let t_extract () =
  (match extract "i" with
  | Some { D.coeff = 1; const = 0; sym = None } -> ()
  | _ -> Alcotest.fail "i");
  (match extract "2 * i + 3" with
  | Some { D.coeff = 2; const = 3; sym = None } -> ()
  | _ -> Alcotest.fail "2i+3");
  (match extract "i - 1" with
  | Some { D.coeff = 1; const = -1; _ } -> ()
  | _ -> Alcotest.fail "i-1");
  (match extract "-i" with
  | Some { D.coeff = -1; _ } -> ()
  | _ -> Alcotest.fail "-i");
  (match extract "n + i" with
  | Some { D.coeff = 1; const = 0; sym = Some _ } -> ()
  | _ -> Alcotest.fail "n+i");
  checkb "i*i is not affine" (extract "i * i" = None);
  checkb "a(i) is not affine in i" (extract "a(i)" = None);
  (match extract "a(n)" with
  | Some { D.coeff = 0; sym = Some _; _ } -> ()
  | _ -> Alcotest.fail "invariant lookup allowed");
  checkb "non-invariant var rejected"
    (D.extract "i" inv_none (parse_expr "n + i") = None)

let aff c k = { D.coeff = c; const = k; sym = None }

let t_siv () =
  checkb "ziv equal" (D.siv_test (aff 0 3) (aff 0 3) = D.Unknown);
  checkb "ziv different" (D.siv_test (aff 0 3) (aff 0 4) = D.Independent);
  checkb "strong siv distance"
    (D.siv_test (aff 1 0) (aff 1 (-2)) = D.Distance (-2));
  checkb "strong siv same" (D.siv_test (aff 1 5) (aff 1 5) = D.Distance 0);
  checkb "strong siv non-integer"
    (D.siv_test (aff 2 0) (aff 2 1) = D.Independent);
  checkb "gcd independent" (D.siv_test (aff 2 0) (aff 4 1) = D.Independent);
  checkb "gcd feasible unknown" (D.siv_test (aff 2 0) (aff 4 2) = D.Unknown);
  checkb "different symbols unknown"
    (D.siv_test
       { D.coeff = 1; const = 0; sym = Some (Ast.EVar "n") }
       (aff 1 0)
    = D.Unknown)

(* a(3) against a(c*i + k): the invariant reference collides with exactly
   one iteration, i = (3 - k)/c *)
let t_weak_zero () =
  checkb "fractional solution independent"
    (D.siv_test (aff 0 3) (aff 2 0) = D.Independent);
  checkb "integral solution unknown without bounds"
    (D.siv_test (aff 0 3) (aff 1 0) = D.Unknown);
  checkb "solution inside the iteration space unknown"
    (D.siv_test ~bounds:(1, 8) (aff 0 3) (aff 1 0) = D.Unknown);
  checkb "solution outside the iteration space independent"
    (D.siv_test ~bounds:(4, 8) (aff 0 3) (aff 1 0) = D.Independent);
  checkb "symmetric in argument order"
    (D.siv_test ~bounds:(4, 8) (aff 1 0) (aff 0 3) = D.Independent);
  checkb "negative coefficient handled"
    (D.siv_test ~bounds:(1, 8) (aff 0 3) (aff (-1) 0) = D.Independent)

(* a(c*i + k1) against a(-c*i + k2): collisions need i1 + i2 = (k2-k1)/c,
   which two iterations can only form inside [2*lo, 2*hi] *)
let t_weak_crossing () =
  checkb "fractional crossing independent"
    (D.siv_test (aff 2 0) (aff (-2) 3) = D.Independent);
  checkb "integral crossing unknown without bounds"
    (D.siv_test (aff 1 0) (aff (-1) 4) = D.Unknown);
  checkb "crossing inside the iteration space unknown"
    (D.siv_test ~bounds:(1, 8) (aff 1 0) (aff (-1) 4) = D.Unknown);
  checkb "crossing below the iteration space independent"
    (D.siv_test ~bounds:(3, 8) (aff 1 0) (aff (-1) 4) = D.Independent);
  checkb "crossing above the iteration space independent"
    (D.siv_test ~bounds:(1, 8) (aff 1 0) (aff (-1) 20) = D.Independent);
  checkb "boundary sum still unknown"
    (D.siv_test ~bounds:(1, 8) (aff 1 0) (aff (-1) 16) = D.Unknown)

let t_combine () =
  checkb "any independent wins"
    (D.combine [ D.Unknown; D.Independent ] = D.Independent);
  checkb "consistent distances"
    (D.combine [ D.Distance 2; D.Distance 2 ] = D.Distance 2);
  checkb "contradictory distances independent"
    (D.combine [ D.Distance 1; D.Distance 2 ] = D.Independent);
  checkb "unknown absorbs" (D.combine [ D.Unknown; D.Unknown ] = D.Unknown)

let carried src =
  let body = parse_block src in
  let assigned = Lf_lang.Ast_util.assigned_vars body in
  let invariant v = v <> "i" && not (List.mem v assigned) in
  D.loop_carried_array_dependence "i" invariant body

let t_loop_carried () =
  checkb "disjoint writes per iteration" (not (carried "a(i) = i"));
  checkb "read-modify-write same element"
    (not (carried "a(i) = a(i) + 1"));
  checkb "offset read carries" (carried "a(i) = a(i - 1) + 1");
  checkb "constant cell carries" (carried "a(1) = a(1) + i");
  checkb "reads alone never carry" (not (carried "b = a(i) + a(i - 1)"));
  checkb "indirect write is unknown (conservative)"
    (carried "a(p(i)) = 1");
  checkb "invariant-table read beside subscript write ok"
    (not (carried "a(i) = t(i) * 2"));
  checkb "two-dim distance 0"
    (not (carried "x(i, j) = x(i, j) + 1"));
  checkb "write to other row carries" (carried "x(i + 1, j) = x(i, j)");
  checkb "different columns independent"
    (not (carried "x(i, 1) = x(i, 2) + 1"))

let t_references () =
  let refs = D.references (parse_block "a(i) = b(i - 1) + a(i)") in
  checki "reference count" 3 (List.length refs);
  checki "write count" 1
    (List.length (List.filter (fun r -> r.D.r_is_write) refs))

(* ------------------------------------------------------------------ *)
(* Differential oracle: the all-pairs scan                             *)
(* ------------------------------------------------------------------ *)

(* The scan [loop_carried_array_dependence] made before it grouped
   references by array: every pair in source order, each reference
   against itself when it writes.  Returns the first offending pair
   of every array, as positions in the reference list, with its
   verdict — the pair the lint reports. *)
let all_pairs_first_conflicts ?bounds var invariant refs =
  let refs = Array.of_list refs in
  let n = Array.length refs in
  let hits = ref [] and seen = ref [] in
  for i = 0 to n - 1 do
    let r = refs.(i) in
    if not (List.mem r.D.r_array !seen) then begin
      let hit = ref None in
      if r.D.r_is_write then
        Option.iter
          (fun v -> hit := Some (i, i, v))
          (D.refs_conflict ?bounds var invariant r r);
      let j = ref (i + 1) in
      while !hit = None && !j < n do
        Option.iter
          (fun v -> hit := Some (i, !j, v))
          (D.refs_conflict ?bounds var invariant r refs.(!j));
        incr j
      done;
      Option.iter
        (fun h ->
          seen := r.D.r_array :: !seen;
          hits := h :: !hits)
        !hit
    end
  done;
  List.rev !hits

(* Loop bodies: [Lf_testgen]'s random blocks, and assignment lists over
   arrays whose subscripts the SIV tests can decide (so the verdicts
   cover independence and distances, not just Unknown). *)
let body_gen =
  let open QCheck.Gen in
  let sub =
    oneofl
      [
        "i"; "i + 1"; "i - 1"; "2 * i"; "2 * i + 1"; "3"; "4"; "n";
        "i + n"; "9 - i"; "p(i)"; "i * i"; "-i + 2";
      ]
  in
  let aref =
    let* a = oneofl [ "a"; "b"; "x" ] in
    if a = "x" then
      map2 (fun s1 s2 -> Printf.sprintf "x(%s, %s)" s1 s2) sub
        (oneofl [ "j"; "1"; "2"; "i" ])
    else map (fun s -> Printf.sprintf "%s(%s)" a s) sub
  in
  let assign =
    let* lhs = frequency [ (3, aref); (1, return "s") ] in
    let* reads = list_size (0 -- 2) aref in
    return (lhs ^ " = " ^ String.concat " + " ("1" :: reads))
  in
  frequency
    [
      (1, Gen.block);
      ( 3,
        map
          (fun stmts -> parse_block (String.concat "\n" stmts))
          (list_size (1 -- 12) assign) );
    ]

(* The lint's LF004/LF007 scan before it shared the grouped scan: one
   diagnostic per array, for the first offending reference in source
   order, citing the write side of the pair. *)
let all_pairs_carried_diags ?bounds var invariant cfg =
  let module L = Lf_analysis.Lint in
  let conflict (r1, _) (r2, _) = D.refs_conflict ?bounds var invariant r1 r2 in
  let rec scan seen acc = function
    | [] -> List.rev acc
    | ((r, loc) as rf) :: rest -> (
        let hit =
          if List.mem r.D.r_array seen then None
          else
            match if r.D.r_is_write then conflict rf rf else None with
            | Some v -> Some (v, loc)
            | None ->
                List.find_map
                  (fun ((r2, loc2) as rf2) ->
                    Option.map
                      (fun v ->
                        ( v,
                          if r.D.r_is_write then loc
                          else if r2.D.r_is_write then loc2
                          else loc ))
                      (conflict rf rf2))
                  rest
        in
        match hit with
        | Some (v, loc) ->
            scan (r.D.r_array :: seen)
              (L.diag ~loc "LF004" L.Error
                 "%s: references to %s may touch the same element in \
                  different iterations of the %s loop (%a)"
                 "carried" r.D.r_array var D.pp_verdict v
              :: acc)
              rest
        | None -> scan seen acc rest)
  in
  scan [] [] (L.located_refs cfg)

let prop_grouped_equals_all_pairs =
  qcheck_case ~count:500 "grouped scan and lint equal the all-pairs scan"
    QCheck.Gen.(pair body_gen (opt (return (1, 8))))
    (fun (body, bounds) ->
      let assigned = Lf_lang.Ast_util.assigned_vars body in
      let invariant v = v <> "i" && not (List.mem v assigned) in
      let refs = D.references body in
      let oracle = all_pairs_first_conflicts ?bounds "i" invariant refs in
      let grouped =
        List.mapi (fun pos r -> (r, pos)) refs
        |> D.group_refs
        |> List.filter_map (D.group_conflict ?bounds "i" invariant)
        |> List.map (fun (d1, d2, v) -> (d1.D.d_first, d2.D.d_first, v))
        |> List.sort compare
      in
      let cfg = Lf_analysis.Cfg.build body in
      D.loop_carried_array_dependence ?bounds "i" invariant body
      = (oracle <> [])
      && grouped = oracle
      && Lf_analysis.Lint.carried_array_diags ?bounds ~rule:"LF004"
           ~severity:Lf_analysis.Lint.Error ~what:"carried" "i" invariant cfg
         = all_pairs_carried_diags ?bounds "i" invariant cfg)

let suite =
  [
    case "affine extraction" t_extract;
    case "ZIV and SIV tests" t_siv;
    case "weak-zero SIV" t_weak_zero;
    case "weak-crossing SIV" t_weak_crossing;
    case "verdict combination" t_combine;
    case "loop-carried decisions" t_loop_carried;
    case "reference collection" t_references;
    prop_grouped_equals_all_pairs;
  ]
