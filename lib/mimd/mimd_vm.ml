(** MIMD execution model (paper §3, Figure 3): each of the P processors
    runs its own copy of the program asynchronously on its own partition,
    with a separate name space.  The running time is the maximum over the
    per-processor times — Equation 1's [max_p Σ_i L_p^i] when the unit of
    time is one inner-loop iteration.

    Each processor gets an independent sequential [Lf_lang.Interp] context;
    [setup] seeds processor [p]'s name space (its partition of the data,
    per the owner-computes rule). *)

open Lf_lang

type result = {
  contexts : Interp.t array;
  steps : int array;  (** interpreter steps per processor *)
  time : int;  (** max over processors *)
  calls : int array;  (** external-subroutine calls per processor *)
  call_time : int;  (** max over processors of external calls — Eq. 1 when
                        each call is one inner iteration *)
  line_steps : (int * int array) list;
      (** with [~profile:true]: per source line, the interpreter steps
          each processor spent on that line.  A line's MIMD time is the
          max over its array (the slowest processor); summing the maxima
          per region gives TIME_MIMD for that region, the asynchronous
          counterpart of the SIMD per-line profile.  Line 0 collects
          statements without a source location.  Empty when profiling
          was off. *)
}

(** Run [prog] on [p] processors.  [setup proc ctx] prepares processor
    [proc] (0-based) — typically binding its block or cyclic slice of the
    global arrays; [procs] registers external subroutines available on all
    processors.  [profile] turns on per-line step attribution (a per-step
    hook in each interpreter; off by default so the plain path pays
    nothing beyond a [None] check). *)
let run ?fuel ~p ?(procs = []) ?(profile = false)
    ~(setup : int -> Interp.t -> unit) (prog : Ast.program) : result =
  let tables = Array.init p (fun _ -> Hashtbl.create 16) in
  let contexts =
    Array.init p (fun proc ->
        let ctx = Interp.create ?fuel () in
        if profile then begin
          let tbl = tables.(proc) in
          ctx.Interp.step_hook <-
            Some
              (fun loc ->
                let line = loc.Errors.line in
                Hashtbl.replace tbl line
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tbl line)))
        end;
        List.iter (fun (name, f) -> Interp.register_proc ctx name f) procs;
        setup proc ctx;
        Interp.declare ctx prog.Ast.p_decls;
        Interp.exec_stmts ctx prog.Ast.p_body;
        ctx)
  in
  let steps = Array.map (fun c -> c.Interp.steps) contexts in
  let calls =
    Array.map (fun c -> List.length (Interp.observations c)) contexts
  in
  let line_steps =
    if not profile then []
    else begin
      let lines = Hashtbl.create 16 in
      Array.iter
        (fun tbl -> Hashtbl.iter (fun l _ -> Hashtbl.replace lines l ()) tbl)
        tables;
      Hashtbl.fold
        (fun l () acc ->
          ( l,
            Array.map
              (fun tbl ->
                Option.value ~default:0 (Hashtbl.find_opt tbl l))
              tables )
          :: acc)
        lines []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    end
  in
  {
    contexts;
    steps;
    time = Array.fold_left max 0 steps;
    calls;
    call_time = Array.fold_left max 0 calls;
    line_steps;
  }

(** Run a bare block per processor. *)
let run_block ?fuel ~p ?(procs = []) ?profile
    ~(setup : int -> Interp.t -> unit) (b : Ast.block) : result =
  run ?fuel ~p ~procs ?profile ~setup (Ast.program "mimd" b)
