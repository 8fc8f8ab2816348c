(** The value-range analysis ([Lf_analysis.Range]).

    Three layers:
    - lattice units: join widens, refinement meet keeps the established
      bound on incomparable facts, subsumption and symbolic membership;
    - driver units on a flattened-style loop: the claim the [-O2]
      optimizer consumes ([at1 ∈ [1, n]] inside the [WHERE (at1 <= n)]
      guard of a stride-8 loop);
    - the soundness property, as QCheck over random SIMD programs: the
      abstract interval recorded before every assignment contains each
      concrete active-lane value the tree-walk engine observes there,
      resolving symbolic bounds against the live front-end scalars — the
      exact contract the compiled engine's bounds-check discharge relies
      on. *)

open Helpers
open Lf_lang
module Range = Lf_analysis.Range
module Vm = Lf_simd.Vm

(* ------------------------------------------------------------------ *)
(* Lattice units                                                       *)
(* ------------------------------------------------------------------ *)

let t_bounds () =
  let open Range in
  checkb "join of comparable lows takes the min"
    (join_lo (Fin 1) (Fin 3) = Fin 1);
  checkb "join of incomparable lows drops to -inf"
    (join_lo (Fin 1) (Sym ("n", 1)) = NegInf);
  checkb "join of same-symbol highs takes the max"
    (join_hi (Sym ("n", 0)) (Sym ("n", 2)) = Sym ("n", 2));
  (* the refinement meet keeps the established bound when the fresh
     fact is incomparable: an else-arm [x > n] must not clobber the
     constant lower bound the then-arm still carries *)
  checkb "meet keeps the established low on incomparable facts"
    (meet_lo (Fin 1) (Sym ("n", 1)) = Fin 1);
  checkb "meet refines an infinite high with a symbol"
    (meet_hi PosInf (Sym ("n", 0)) = Sym ("n", 0));
  checkb "meet of comparable highs takes the min"
    (meet_hi (Fin 9) (Fin 4) = Fin 4);
  checkb "saturating add does not wrap" (sat_add max_int 1 = max_int);
  checkb "saturating mul does not wrap"
    (sat_mul max_int 2 = max_int && sat_mul max_int (-2) = min_int)

let t_subsumes_mem () =
  let open Range in
  let iv lo hi = { lo; hi } in
  checkb "wider interval subsumes"
    (subsumes (iv (Fin 1) PosInf) (iv (Fin 3) (Fin 5)));
  checkb "same-symbol bounds compare by offset"
    (subsumes (iv (Fin 1) (Sym ("n", 1))) (iv (Fin 2) (Sym ("n", 0))));
  checkb "incomparable bounds answer false"
    (not (subsumes (iv (Sym ("n", 0)) PosInf) (iv (Fin 1) (Fin 2))));
  let resolve = function "n" -> Some 8 | _ -> None in
  checkb "mem resolves symbols" (mem ~resolve 8 (iv (Fin 1) (Sym ("n", 0))));
  checkb "mem rejects past a resolved bound"
    (not (mem ~resolve 9 (iv (Fin 1) (Sym ("n", 0)))));
  checkb "unresolvable symbols are vacuous"
    (mem ~resolve 1000 (iv (Fin 1) (Sym ("m", 0))))

(* ------------------------------------------------------------------ *)
(* Driver units: the flattened-loop shape                              *)
(* ------------------------------------------------------------------ *)

(* the first physical assignment to [name], unwrapping SLoc — the
   statement identity [Range.eval_at] keys on *)
let rec find_assign name (s : Ast.stmt) : Ast.stmt option =
  match s with
  | Ast.SLoc (_, inner) -> find_assign name inner
  | Ast.SAssign (lv, _) when lv.Ast.lv_name = name -> Some s
  | Ast.SIf (_, t, f) | Ast.SWhere (_, t, f) ->
      (match find_assign_block name t with
      | Some s -> Some s
      | None -> find_assign_block name f)
  | Ast.SWhile (_, b)
  | Ast.SDoWhile (b, _)
  | Ast.SDo (_, b)
  | Ast.SForall (_, b) ->
      find_assign_block name b
  | _ -> None

and find_assign_block name b =
  List.fold_left
    (fun acc s -> match acc with Some _ -> acc | None -> find_assign name s)
    None b

let flat_loop =
  {|
at1 = 1 + (iproc - 1)
WHILE (any(at1 <= n))
  WHERE (at1 <= n)
    f(at1) = f(at1) + 1.0
    at1 = at1 + 8
  ENDWHERE
ENDWHILE
|}

let t_flattened_claims () =
  let block = parse_block flat_loop in
  let r = Range.analyze ~p:8 block in
  let site =
    match find_assign_block "f" block with
    | Some s -> s
    | None -> Alcotest.fail "no store to f in the flattened loop"
  in
  match Range.eval_at r site (Ast.EVar "at1") with
  | None -> Alcotest.fail "analysis reached no fact at the store"
  | Some iv ->
      (* the guard's symbolic upper bound survives loop widening: this
         is the claim that discharges the bounds check on f(at1) *)
      checks "interval inside the WHERE guard" "[1, n]"
        (Range.iv_to_string iv)

let t_call_havocs () =
  let block = parse_block "i = iproc\nCALL foo(i)\nj = i" in
  let r = Range.analyze ~p:4 block in
  let site =
    match find_assign_block "j" block with
    | Some s -> s
    | None -> Alcotest.fail "no assignment to j"
  in
  match Range.eval_at r site (Ast.EVar "i") with
  | None -> Alcotest.fail "analysis reached no fact after the call"
  | Some iv ->
      (* the [1, 4] interval from [i = iproc] is gone; what remains is
         the vacuous symbolic self-value that expression evaluation
         substitutes for an unconstrained name *)
      checkb "CALL havocs the interval"
        (iv = Range.{ lo = Sym ("i", 0); hi = Sym ("i", 0) })

(* ------------------------------------------------------------------ *)
(* Soundness property                                                  *)
(* ------------------------------------------------------------------ *)

let fuel = 20_000
let prop_p = 8

(* check one concrete active-lane value of [v] against its abstract
   fact, resolving symbolic bounds through the live front-end scalars *)
let check_value ~resolve v (iv : Range.iv) ~lane n : string option =
  if Range.mem ~resolve n iv then None
  else
    Some
      (Fmt.str "%s = %d escapes %s at lane %d" v n (Range.iv_to_string iv)
         lane)

let prop_intervals_sound prog =
  let r = Range.analyze ~p:prop_p prog.Ast.p_body in
  if r.Range.r_envs = [] then true (* GOTO programs carry no facts *)
  else begin
    let violation = ref None in
    let note v = if !violation = None then violation := Some v in
    let observer vm ~mask stmt =
      match
        List.find_opt (fun (s, _) -> s == stmt) r.Range.r_envs
      with
      | None | Some (_, Range.Bot) -> ()
      | Some (_, Range.Env m) ->
          (* facts hold over the active lanes of the statement's mask
             context; an empty mask makes every claim vacuous *)
          if Array.exists Fun.id mask then begin
            let resolve v =
              match Vm.find_opt vm v with
              | Some (Vm.VScalar { contents = Values.VInt n }) -> Some n
              | _ -> None
            in
            Range.SMap.iter
              (fun v iv ->
                match Vm.find_opt vm v with
                | Some (Vm.VPlural lanes) ->
                    Array.iteri
                      (fun i x ->
                        match x with
                        | Values.VInt n when i < Array.length mask && mask.(i)
                          ->
                            Option.iter note
                              (check_value ~resolve v iv ~lane:(i + 1) n)
                        | _ -> ())
                      (Lf_simd.Frame.values_of_lanes lanes)
                | Some (Vm.VScalar { contents = Values.VInt n }) ->
                    Array.iteri
                      (fun i active ->
                        if active then
                          Option.iter note
                            (check_value ~resolve v iv ~lane:(i + 1) n))
                      mask
                | _ -> ())
              m
          end
    in
    (match
       Vm.run ~fuel ~p:prop_p
         ~setup:(fun vm ->
           Gen.simd_prog_setup ~p:prop_p vm;
           Vm.set_observer vm observer)
         prog
     with
    | (_ : Vm.t) -> ()
    | exception (Errors.Runtime_error _ | Errors.Runtime_error_at _) ->
        (* aborted runs still validated every observation before the
           abort *)
        ());
    match !violation with
    | None -> true
    | Some msg ->
        QCheck.Test.fail_reportf "range analysis unsound: %s on@.%s" msg
          (Pretty.program_to_string prog)
  end

let t_soundness =
  qcheck_case ~count:500
    "abstract facts contain every observed active-lane value"
    Gen.simd_prog_gen prop_intervals_sound

let suite =
  [
    case "bound lattice: join widens, meet keeps established" t_bounds;
    case "subsumption and symbolic membership" t_subsumes_mem;
    case "flattened loop: [1, n] claim, stride-8 guard survives widening"
      t_flattened_claims;
    case "CALL havocs" t_call_havocs;
    t_soundness;
  ]
