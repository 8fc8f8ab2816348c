(** The coverage-guided campaign driver.

    A campaign is fully determined by its seed: one [Random.State]
    drives generation, mutation-operator choice and corpus picks, the
    oracle battery is deterministic, and so is the reducer — so
    [--fuzz N --seed S] replays bit-identically.

    Coverage guidance: the corpus keeps every input whose
    [Oracle.outcome] lit a coverage key (stats counter + value bucket,
    lint rule, error class) no earlier input lit.  Each campaign step
    either mutates a kept input (3 out of 4 steps, once the corpus is
    non-empty) or generates a fresh random program, so the fuzzer keeps
    probing the neighborhoods that found new behavior while still
    sampling the whole space.  [mutate = false] disables the feedback
    loop (pure random generation at the same budget) — the baseline the
    EXPERIMENTS study compares against. *)

module Gen = Lf_testgen.Gen
module Cov = Oracle.Cov

type config = {
  seed : int;
  count : int;  (** campaign inputs, excluding replayed corpus seeds *)
  fuel : int;
  dialects : Input.dialect list;
  mutate : bool;  (** coverage-guided mutation vs pure random *)
  minimize : bool;
  max_mutations : int;  (** mutation operators stacked per mutant *)
  max_shrink_checks : int;  (** oracle replays the reducer may spend *)
}

let default_config =
  {
    seed = 0;
    count = 100;
    fuel = Oracle.default_fuel;
    dialects = [ Input.Simd; Input.Nest ];
    mutate = true;
    minimize = false;
    max_mutations = 3;
    max_shrink_checks = 800;
  }

type failure = {
  f_input : Input.t;
  f_oracle : string;
  f_detail : string;
  f_minimized : Input.t option;
}

type report = {
  r_executed : int;  (** oracle runs: corpus seeds + campaign inputs *)
  r_failures : failure list;  (** in discovery order *)
  r_corpus : Input.t list;  (** coverage-increasing inputs, in order *)
  r_coverage : int;  (** final coverage key count *)
  r_fuel_outs : int;
  r_coverage_log : (int * int) list;
      (** (campaign input index, cumulative coverage) per step — the
          coverage-growth curve of the EXPERIMENTS study *)
}

let fresh_input rand = function
  | Input.Simd ->
      Input.make Input.Simd
        (QCheck.Gen.generate1 ~rand
           (QCheck.Gen.frequency
              [ (3, Gen.simd_prog_gen); (2, Gen.simd_prog_ext_gen) ]))
  | Input.Nest ->
      let en = QCheck.Gen.generate1 ~rand Gen.exec_nest_ext_gen in
      Input.make Input.Nest (Lf_lang.Ast.program "nest" en.Gen.src_block)

let run ?(seeds = []) (cfg : config) : report =
  let rand = Random.State.make [| cfg.seed |] in
  let coverage = ref Cov.empty in
  let corpus = ref [] (* reversed *) in
  let failures = ref [] (* reversed *) in
  let executed = ref 0 in
  let fuel_outs = ref 0 in
  let log = ref [] (* reversed *) in
  let process input =
    incr executed;
    let o = Oracle.run ~fuel:cfg.fuel input in
    match o.Oracle.verdict with
    | Oracle.Fail { oracle; detail } ->
        let minimized =
          if not cfg.minimize then None
          else
            let still_fails i' =
              match (Oracle.run ~fuel:cfg.fuel i').Oracle.verdict with
              | Oracle.Fail { oracle = o'; _ } -> o' = oracle
              | _ -> false
            in
            Some
              (Reduce.minimize ~max_checks:cfg.max_shrink_checks ~still_fails
                 input)
        in
        failures :=
          { f_input = input; f_oracle = oracle; f_detail = detail;
            f_minimized = minimized }
          :: !failures
    | (Oracle.Pass | Oracle.Fuel) as v ->
        if v = Oracle.Fuel then incr fuel_outs;
        if not (Cov.subset o.Oracle.coverage !coverage) then begin
          coverage := Cov.union !coverage o.Oracle.coverage;
          corpus := input :: !corpus
        end
  in
  List.iter process seeds;
  for i = 1 to cfg.count do
    let input =
      match !corpus with
      | base :: _ :: _ | [ base ]
        when cfg.mutate && Random.State.int rand 4 > 0 ->
          let picks = Array.of_list !corpus in
          let base =
            if Array.length picks = 1 then base
            else picks.(Random.State.int rand (Array.length picks))
          in
          Mutate.mutate
            ~n:(1 + Random.State.int rand cfg.max_mutations)
            ~rand base
      | _ ->
          let ds = Array.of_list cfg.dialects in
          fresh_input rand ds.(Random.State.int rand (Array.length ds))
    in
    process input;
    log := (i, Cov.cardinal !coverage) :: !log
  done;
  {
    r_executed = !executed;
    r_failures = List.rev !failures;
    r_corpus = List.rev !corpus;
    r_coverage = Cov.cardinal !coverage;
    r_fuel_outs = !fuel_outs;
    r_coverage_log = List.rev !log;
  }

(* ------------------------------------------------------------------ *)
(* Fault injection for the smoke suite                                 *)
(* ------------------------------------------------------------------ *)

(** The deliberately broken oracle ([--chaos oracle]): it flags every
    program containing a WHERE statement as a failure.  The smoke suite
    installs it via [Oracle.extra_oracle] to prove a bad verdict — from
    any oracle, even a wrong one — is found, minimized (to a single
    WHERE statement) and reported through the standard path. *)
let broken_where_oracle (i : Input.t) : Oracle.verdict =
  let open Lf_lang.Ast in
  let rec block_has b = List.exists stmt_has b
  and stmt_has s =
    match strip_loc s with
    | SWhere _ -> true
    | SDo (_, b) | SWhile (_, b) | SDoWhile (b, _) | SForall (_, b) ->
        block_has b
    | SIf (_, t, f) -> block_has t || block_has f
    | _ -> false
  in
  if block_has i.Input.prog.p_body then
    Oracle.Fail
      {
        oracle = "chaos-oracle";
        detail = "deliberately broken oracle flagged a WHERE statement";
      }
  else Oracle.Pass

(** Install the named fault: ["scratch"] makes the optimizer's scratch
    phase give every buffer-owning site group 0
    ([Lf_simd.Opt.chaos_scratch]); ["oracle"] installs
    [broken_where_oracle].  Returns an uninstaller. *)
let install_chaos = function
  | "oracle" ->
      Oracle.extra_oracle := Some broken_where_oracle;
      fun () -> Oracle.extra_oracle := None
  | "scratch" ->
      Lf_simd.Opt.chaos_scratch := true;
      fun () -> Lf_simd.Opt.chaos_scratch := false
  | other -> invalid_arg ("unknown chaos target: " ^ other)
