(** The differential oracle battery.

    One fuzz input is judged by every cheap correctness contract the
    engine exports:

    [Simd] inputs (differential testing against the reference):
    - pretty-print / re-parse round-trip is the identity (modulo
      locations and comments);
    - the compiled [-O0] and [-O1] legs each agree with the boxed
      reference machine ([Lf_testgen.Ref_vm]) on final state (bit for
      bit), [Metrics] and error strings at every lane count in the
      sweep;
    - the [-O1] leg runs under [--verify-ir]: the optimizer must never
      emit IR the verifier rejects;
    - the [Counters] section of the stats registry is identical on
      both legs (the opt-level invariance contract);
    - replaying one leg twice yields the identical snapshot (stats
      determinism).

    [Nest] inputs (translation validation):
    - round-trip, as above;
    - lint runs to completion (its rule hits become coverage);
    - when the original nest executes successfully, the flattened
      program ([Lf_core.Pipeline]) and the coalesced program
      ([Lf_core.Coalesce]) must run to the same [x]/[acc] state and the
      same external-call observation trace.

    Fuel exhaustion shared by every leg is the distinct [Fuel] verdict —
    the guard that makes infinite GOTO loops fail fast instead of
    hanging the campaign — and is not a failure.

    The coverage signal is the set of stats-registry counters the input
    lit up (name plus log2 value bucket), the lint rules it fired, and
    the normalized error classes it provoked — see [Fuzz] for how the
    corpus uses it. *)

open Lf_lang
module Stats = Lf_obs.Stats
module Gen = Lf_testgen.Gen
module Ref_vm = Lf_testgen.Ref_vm

module Cov = Set.Make (String)

type verdict =
  | Pass
  | Fuel  (** engine-identical fuel exhaustion: distinct, not a failure *)
  | Fail of { oracle : string; detail : string }

type outcome = {
  verdict : verdict;
  coverage : Cov.t;
}

let default_fuel = 20_000
let simd_ps = [ 1; 5; 64 ]

exception Failed of string * string

let failf oracle fmt = Fmt.kstr (fun d -> raise (Failed (oracle, d))) fmt

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let is_fuel_msg m = contains m "fuel exhausted"

(* coverage keys ---------------------------------------------------- *)

let normalize_error m =
  String.map (fun c -> if c >= '0' && c <= '9' then '#' else c) m

let rec bucket v = if v <= 1 then 0 else 1 + bucket (v / 2)

let add_snapshot cov snap =
  List.fold_left
    (fun cov (name, v) ->
      if v = 0 then cov
      else Cov.add name (Cov.add (Fmt.str "%s#b%d" name (bucket v)) cov))
    cov snap

let add_error cov m = Cov.add ("error:" ^ normalize_error m) cov

(* stats management ------------------------------------------------- *)

let with_stats f =
  let was = Stats.enabled () in
  if not was then Stats.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then begin
        Stats.disable ();
        Stats.reset ()
      end)
    f

(* ------------------------------------------------------------------ *)
(* Simd dialect: differential legs against the reference               *)
(* ------------------------------------------------------------------ *)

type leg = {
  what : string;
  run : Lf_simd.Vm.t * string option;
  counters : (string * int) list;
  optc : (string * int) list;  (** the [opt.*] counters only *)
}

let diags_text diags =
  let n = List.length diags in
  let shown = List.filteri (fun i _ -> i < 3) diags in
  String.concat "; "
    (List.map
       (fun d -> d.Lf_analysis.Lint.d_rule ^ ": " ^ d.Lf_analysis.Lint.d_msg)
       shown)
  ^ if n > 3 then Fmt.str " (and %d more)" (n - 3) else ""

let run_leg ~fuel ~p ~opt ?verify ~what prog =
  Stats.reset ();
  let run =
    try
      Ref_vm.compiled ~fuel ~opt ?verify ~p ~setup:(Gen.simd_prog_setup ~p)
        prog
    with Lf_simd.Verify.Error diags ->
      failf "verify-ir" "%s, p=%d: optimizer emitted IR the verifier rejects: %s"
        what p (diags_text diags)
  in
  let counters = Stats.snapshot ~sections:[ Stats.Counters ] () in
  let optc =
    List.filter
      (fun (n, _) -> String.length n >= 4 && String.sub n 0 4 = "opt.")
      (Stats.snapshot ~sections:[ Stats.Opt ] ())
  in
  { what; run; counters; optc }

let check_simd ~fuel prog =
  let cov = ref Cov.empty in
  let fueled = ref false in
  List.iter
    (fun p ->
      let reference =
        Ref_vm.run ~fuel ~p ~setup:(Gen.simd_prog_setup ~p) prog
      in
      let o0 = run_leg ~fuel ~p ~opt:0 ~what:"compiled -O0" prog in
      let o1 =
        run_leg ~fuel ~p ~opt:1 ~verify:true ~what:"compiled -O1+verify" prog
      in
      List.iter
        (fun l ->
          Option.iter
            (failf "engine-diff" "reference vs %s, p=%d: %s differs" l.what p)
            (Ref_vm.disagreement reference l.run))
        [ o0; o1 ];
      (* opt-level invariance of the stable counter section *)
      if o0.counters <> o1.counters then
        failf "stats-counters" "%s vs %s, p=%d: Counters section diverged"
          o0.what o1.what p;
      (* stats determinism: the same leg replayed is bit-identical *)
      let again =
        run_leg ~fuel ~p ~opt:1 ~verify:true
          ~what:"compiled -O1+verify (replay)" prog
      in
      if again.counters <> o1.counters || again.optc <> o1.optc then
        failf "stats-determinism"
          "p=%d: replaying compiled -O1+verify changed the snapshot" p;
      (* fuel exhaustion must be shared by every leg (checked by
         [Ref_vm.disagreement] above); record it as the distinct verdict *)
      (match snd reference with
      | Some m when is_fuel_msg m -> fueled := true
      | Some m -> cov := add_error !cov m
      | None -> ());
      List.iter
        (fun l -> cov := add_snapshot (add_snapshot !cov l.counters) l.optc)
        [ o0; o1 ])
    simd_ps;
  (!cov, !fueled)

(* ------------------------------------------------------------------ *)
(* Nest dialect: translation validation                                *)
(* ------------------------------------------------------------------ *)

(* Every nest input runs in one fixed environment (rather than the
   per-input environments of the property tests) so corpus files are
   self-contained: k = 4, l = [4; 1; 3; 2] (note the l(2) = 1 inner
   extent: single-trip inner loops are where flattening variants
   disagree when they are wrong). *)
let nest_env =
  { Gen.src_block = []; k = 4; l = [| 4; 1; 3; 2 |]; inner_nonempty = false }

let nest_setup ctx = Gen.exec_setup nest_env ctx

let nest_opts =
  {
    Lf_core.Pipeline.default_options with
    Lf_core.Pipeline.pure_subroutines = [ "tick" ];
  }

let run_nest ~fuel prog : (Interp.t, string) result =
  match Interp.run ~fuel ~setup:nest_setup prog with
  | ctx -> Ok ctx
  | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
      Error (Errors.to_message e)

let obs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun oa ob ->
         oa.Interp.ob_proc = ob.Interp.ob_proc
         && List.length oa.Interp.ob_args = List.length ob.Interp.ob_args
         && List.for_all2 Values.equal_value oa.Interp.ob_args
              ob.Interp.ob_args)
       a b

(* Compare a transformed program against the original's successful run.
   The transformed leg gets a 4x fuel margin: the rewrites add
   bookkeeping statements, but a terminating nest must still terminate
   — exhausting even the margin is a divergence, not a fuel verdict. *)
let validate_transform ~fuel ~what ctx0 prog' cov =
  match run_nest ~fuel:(4 * fuel) prog' with
  | Error m when is_fuel_msg m ->
      failf what "transformed program exhausted 4x fuel where the original terminated"
  | Error m -> failf what "only the transformed program failed (%S)" m
  | Ok ctx' ->
      if not (Env.equal_on Gen.exec_observables ctx0.Interp.env ctx'.Interp.env)
      then failf what "final x/acc state diverged";
      if not (obs_equal (Interp.observations ctx0) (Interp.observations ctx'))
      then failf what "external-call observation traces diverged";
      cov

let check_nest ~fuel prog =
  let cov = ref Cov.empty in
  let fueled = ref false in
  (* lint: rule hits are coverage; lint crashing is a failure *)
  let lint_cov pure_subroutines =
    match Lf_analysis.Lint.check_program ~pure_subroutines prog with
    | report ->
        List.iter
          (fun d -> cov := Cov.add ("lint:" ^ d.Lf_analysis.Lint.d_rule) !cov)
          report.Lf_analysis.Lint.diags
    | exception e -> failf "lint-crash" "%s" (Printexc.to_string e)
  in
  lint_cov [];
  lint_cov [ "tick" ];
  Stats.reset ();
  (match run_nest ~fuel prog with
  | Error m when is_fuel_msg m -> fueled := true
  | Error m -> cov := add_error !cov m
  | Ok ctx0 ->
      cov := add_snapshot !cov (Stats.snapshot ~sections:[ Stats.Counters ] ());
      (* flatten validation *)
      (match Lf_core.Pipeline.flatten_program ~opts:nest_opts prog with
      | Error _ -> cov := Cov.add "flatten:rejected" !cov
      | Ok o ->
          cov :=
            validate_transform ~fuel ~what:"flatten" ctx0
              o.Lf_core.Pipeline.program
              (Cov.add "flatten:ok" !cov)
      | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e)
        ->
          failf "flatten-crash" "%s" (Errors.to_message e));
      (* coalesce validation *)
      match Lf_core.Pipeline.split_first_loop prog.Ast.p_body with
      | None -> ()
      | Some (pre, loop, post) -> (
          let fresh = Lf_core.Fresh.of_program prog in
          match Lf_core.Coalesce.coalesce ~fresh loop with
          | Error _ -> cov := Cov.add "coalesce:rejected" !cov
          | Ok flat ->
              let prog' = { prog with Ast.p_body = pre @ flat @ post } in
              cov :=
                validate_transform ~fuel ~what:"coalesce" ctx0 prog'
                  (Cov.add "coalesce:ok" !cov)));
  (!cov, !fueled)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Test-only hook: an extra oracle consulted after the standard
    battery.  The fuzz-smoke suite installs a deliberately broken one
    here to prove a bad oracle verdict is caught, minimized and
    reported like any engine bug.  Must be [None] outside tests. *)
let extra_oracle : (Input.t -> verdict) option ref = ref None

(* Two semantically-identical shape differences are allowed across
   print/parse, so both sides are normalized before comparing:
   - [EBin (Mod, a, b)] prints as [mod(a, b)] (Fortran has no modulo
     operator) and re-parses as the intrinsic [ECall ("mod", ...)];
   - a registered pure function like [sq] parses as [EIdx] (the parser
     only knows intrinsics), while generators build [ECall] — both
     engines resolve an unbound [EIdx] name through the function table,
     so the application forms are interchangeable. *)
let rec normalize_mod_expr e =
  match e with
  | Ast.EBin (Ast.Mod, a, b) ->
      Ast.ECall ("mod", [ normalize_mod_expr a; normalize_mod_expr b ])
  | Ast.EInt _ | Ast.EReal _ | Ast.EBool _ | Ast.EVar _ -> e
  | Ast.EUn (u, a) -> Ast.EUn (u, normalize_mod_expr a)
  | Ast.EBin (op, a, b) ->
      Ast.EBin (op, normalize_mod_expr a, normalize_mod_expr b)
  | Ast.ERange (a, b) -> Ast.ERange (normalize_mod_expr a, normalize_mod_expr b)
  | Ast.EIdx (v, es) -> Ast.EIdx (v, List.map normalize_mod_expr es)
  | Ast.ECall (v, es) when not (Intrinsics.is_intrinsic v) ->
      Ast.EIdx (v, List.map normalize_mod_expr es)
  | Ast.ECall (v, es) -> Ast.ECall (v, List.map normalize_mod_expr es)

let normalize_mod_program (p : Ast.program) =
  let e = normalize_mod_expr in
  let ctl c =
    {
      c with
      Ast.d_lo = e c.Ast.d_lo;
      d_hi = e c.Ast.d_hi;
      d_step = Option.map e c.Ast.d_step;
    }
  in
  let rec s st =
    match Ast.strip_loc st with
    | Ast.SAssign (lv, rhs) ->
        Ast.SAssign ({ lv with Ast.lv_index = List.map e lv.Ast.lv_index }, e rhs)
    | Ast.SDo (c, b) -> Ast.SDo (ctl c, blk b)
    | Ast.SForall (c, b) -> Ast.SForall (ctl c, blk b)
    | Ast.SWhile (c, b) -> Ast.SWhile (e c, blk b)
    | Ast.SDoWhile (b, c) -> Ast.SDoWhile (blk b, e c)
    | Ast.SIf (c, t, f) -> Ast.SIf (e c, blk t, blk f)
    | Ast.SWhere (c, t, f) -> Ast.SWhere (e c, blk t, blk f)
    | Ast.SCall (n, args) -> Ast.SCall (n, List.map e args)
    | Ast.SCondGoto (c, l) -> Ast.SCondGoto (e c, l)
    | (Ast.SGoto _ | Ast.SLabel _ | Ast.SComment _) as st -> st
    | Ast.SLoc _ -> assert false
  and blk b = List.map s b in
  { p with Ast.p_body = blk p.Ast.p_body }

let roundtrip (i : Input.t) =
  let src = Pretty.program_to_string i.Input.prog in
  match Parser.program_of_string src with
  | p ->
      if
        not
          (Ast.equal_program (normalize_mod_program p)
             (normalize_mod_program i.Input.prog))
      then failf "roundtrip" "pretty-printed program re-parsed differently"
  | exception e ->
      failf "roundtrip" "pretty-printed program does not re-parse: %s"
        (Errors.to_message e)

let run ?(fuel = default_fuel) (i : Input.t) : outcome =
  match
    with_stats (fun () ->
        roundtrip i;
        let cov, fueled =
          match i.Input.dialect with
          | Input.Simd -> check_simd ~fuel i.Input.prog
          | Input.Nest -> check_nest ~fuel i.Input.prog
        in
        let verdict =
          match !extra_oracle with
          | Some f -> (
              match f i with
              | Fail _ as v -> v
              | _ -> if fueled then Fuel else Pass)
          | None -> if fueled then Fuel else Pass
        in
        let cov =
          Cov.add
            (match verdict with
            | Fuel -> "verdict:fuel"
            | _ -> "verdict:pass")
            cov
        in
        { verdict; coverage = cov })
  with
  | outcome -> outcome
  | exception Failed (oracle, detail) ->
      { verdict = Fail { oracle; detail }; coverage = Cov.empty }
  | exception e ->
      (* an escaped exception from any layer is itself a finding *)
      {
        verdict = Fail { oracle = "crash"; detail = Printexc.to_string e };
        coverage = Cov.empty;
      }
