(** The typed IR verifier ([Lf_simd.Verify]).

    The verifier's job is catching an optimizer phase that broke the IR,
    so each test here plays the broken phase: build a well-formed
    annotated IR, corrupt one annotation the way a buggy pass would
    (full-mask inside a branch, a range claim that no longer contains
    the derived interval, a dangling slot), and assert [Verify.check_ir] raises a
    located diagnostic carrying the right rule code and the phase name.
    Clean IR at every level must verify silently — that contract is also
    exercised end-to-end by the [--verify-ir] legs of the dune smoke
    tests and the [?verify] runs in the differential suite. *)

open Helpers
open Lf_lang
module Ir = Lf_simd.Ir
module Opt = Lf_simd.Opt
module Verify = Lf_simd.Verify
module Vm = Lf_simd.Vm
module Lint = Lf_analysis.Lint

let ir_of ?(level = 2) ?(p = 8) src =
  let prog = parse_program src in
  let frame = Lf_simd.Frame.create ~p (Lf_simd.Compile.var_names prog) in
  (frame, Opt.run ~level ~frame (Ir.of_block frame prog.Ast.p_body))

let rec unloc (s : Ir.stmt) =
  match s.Ir.s_node with Ir.LLoc (_, inner) -> unloc inner | _ -> s

(* set a statement flag on a wrapper and its payload together, as a
   (buggy) optimizer phase would via [Opt]'s located walks *)
let rec set_full (s : Ir.stmt) =
  s.Ir.s_full <- true;
  match s.Ir.s_node with Ir.LLoc (_, inner) -> set_full inner | _ -> ()

(* the rule codes of the diagnostics a mutation provokes *)
let rules_of (frame, b) =
  match Verify.check_ir ~frame ~phase:"test-mutation" b with
  | () -> []
  | exception Verify.Error diags ->
      List.map (fun d -> d.Lint.d_rule) diags

let expect_rule what rule (frame, b) =
  match Verify.check_ir ~frame ~phase:"test-mutation" b with
  | () -> Alcotest.fail (what ^ ": verifier accepted the broken IR")
  | exception Verify.Error diags ->
      checkb
        (what ^ ": diagnostic carries " ^ rule)
        (List.exists (fun d -> d.Lint.d_rule = rule) diags);
      checkb
        (what ^ ": diagnostic is located")
        (List.exists
           (fun d -> d.Lint.d_rule = rule && d.Lint.d_loc <> None)
           diags);
      checkb
        (what ^ ": diagnostic cites the phase")
        (List.exists
           (fun d -> Astring_contains.contains d.Lint.d_msg "test-mutation")
           diags)

(* ------------------------------------------------------------------ *)
(* The rules table                                                     *)
(* ------------------------------------------------------------------ *)

let t_rules_table () =
  checki "seven IR rules" 7 (List.length Verify.rules);
  List.iteri
    (fun i (code, doc) ->
      checks "codes are dense and ordered"
        (Fmt.str "IR%03d" (i + 1))
        code;
      checkb "every rule has a summary" (String.length doc > 10);
      checkb "rule_doc finds it" (Verify.rule_doc code = Some doc))
    Verify.rules;
  checkb "unknown rules answer None" (Verify.rule_doc "IR999" = None);
  checkb "LF rules belong to the lint table" (Verify.rule_doc "LF001" = None)

(* ------------------------------------------------------------------ *)
(* Clean IR verifies                                                   *)
(* ------------------------------------------------------------------ *)

let clean_src =
  "PROGRAM t\n\
  \  PLURAL INTEGER i\n\
  \  PLURAL REAL r\n\
  \  REAL x(8)\n\
  \  i = iproc\n\
  \  WHERE (i <= 4)\n\
  \    r = sqrt(x(i)) + 1.0\n\
  \    x(i) = x(i) + r\n\
  \  ENDWHERE\n\
   END"

let t_clean_ir () =
  List.iter
    (fun level ->
      let frame, b = ir_of ~level clean_src in
      match Verify.check_ir ~frame ~phase:"unit" b with
      | () -> ()
      | exception Verify.Error diags ->
          Alcotest.fail
            (Fmt.str "clean -O%d IR rejected: %a" level
               Fmt.(list ~sep:(any "; ") (fun ppf d ->
                        Fmt.string ppf d.Lint.d_msg))
               diags))
    [ 0; 1; 2 ];
  (* the pipeline self-check: every phase output verifies *)
  let prog = parse_program clean_src in
  Vm.verify_ir ~opt:2 ~p:8 prog;
  (* and the executing entry point accepts ?verify on every engine *)
  List.iter
    (fun engine ->
      ignore (Vm.run ~engine ~opt:2 ~verify:true ~p:8 prog : Vm.t))
    [ `Tree_walk; `Compiled; `Parallel ]

(* ------------------------------------------------------------------ *)
(* Broken-phase mutations                                              *)
(* ------------------------------------------------------------------ *)

let t_broken_fullmask () =
  let frame, b = ir_of clean_src in
  (match (unloc b.(1)).Ir.s_node with
  | Ir.LWhere (_, t, _) -> set_full b.(1); Array.iter set_full t
  | _ -> Alcotest.fail "statement 1 is not the WHERE");
  expect_rule "full-mask inside a branch" "IR005" (frame, b)

let t_broken_range_claim () =
  let frame, b = ir_of clean_src in
  let hit = ref 0 in
  let rec poison (e : Ir.expr) =
    (match e.Ir.x_node with
    | Ir.XIdx (_, _, args) ->
        List.iter
          (fun (a : Ir.expr) ->
            (* a claim the derived interval [1, p] cannot live in *)
            a.Ir.x_range <-
              Some Lf_analysis.Range.{ lo = Fin 2; hi = Fin 2 };
            incr hit)
          args
    | _ -> ());
    match e.Ir.x_node with
    | Ir.XConst _ | Ir.XVar _ -> ()
    | Ir.XRange (a, b) | Ir.XBin (_, a, b) -> poison a; poison b
    | Ir.XUn (_, a) -> poison a
    | Ir.XCall (_, args) | Ir.XIdx (_, _, args) -> List.iter poison args
  in
  let rec walk (s : Ir.stmt) =
    match s.Ir.s_node with
    | Ir.LLoc (_, inner) -> walk inner
    | Ir.LAssign (lv, e) -> List.iter poison lv.Ir.l_index; poison e
    | Ir.LWhere (c, t, f) | Ir.LIf (c, t, f) ->
        poison c; Array.iter walk t; Array.iter walk f
    | _ -> ()
  in
  Array.iter walk b;
  checkb "mutation reached at least one gather subscript" (!hit > 0);
  expect_rule "range claim excludes the derived interval" "IR007" (frame, b)

let t_broken_slot () =
  let frame, b = ir_of "PROGRAM t\n  PLURAL INTEGER i\n  i = iproc + 1\nEND" in
  let rec clobber (e : Ir.expr) =
    match e.Ir.x_node with
    | Ir.XVar (Some _, name) -> e.Ir.x_node <- Ir.XVar (Some 9999, name)
    | Ir.XBin (_, a, b) -> clobber a; clobber b
    | Ir.XUn (_, a) -> clobber a
    | _ -> ()
  in
  (match (unloc b.(0)).Ir.s_node with
  | Ir.LAssign (_, e) -> clobber e
  | _ -> Alcotest.fail "statement 0 is not the assignment");
  expect_rule "slot outside the frame" "IR001" (frame, b)

(* a healthy -O2 NBFORCE-shaped loop keeps exactly its own claims: the
   mutations above are the only way to make the verifier speak *)
let t_no_spurious_diags () =
  let frame, b =
    ir_of
      "at1 = 1 + (iproc - 1)\n\
       WHILE (any(at1 <= n))\n\
      \  WHERE (at1 <= n)\n\
      \    f(at1) = f(at1) + 1.0\n\
      \    at1 = at1 + 8\n\
      \  ENDWHERE\n\
       ENDWHILE"
  in
  checkb "flattened loop verifies at -O2" (rules_of (frame, b) = [])

let suite =
  [
    case "rules table: IR001..IR007, rule_doc" t_rules_table;
    case "clean IR verifies at every level and engine" t_clean_ir;
    case "broken phase: full-mask inside a branch" t_broken_fullmask;
    case "broken phase: stale range claim" t_broken_range_claim;
    case "broken phase: dangling slot" t_broken_slot;
    case "flattened -O2 loop is diagnostic-free" t_no_spurious_diags;
  ]
