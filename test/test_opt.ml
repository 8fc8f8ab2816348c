(** Unit tests for the slot-resolved IR ([Ir]) and the optimizer
    pipeline ([Opt]): where each annotation lands (fusion policy, fused
    reductions, scatter-accumulate, scratch planning) plus targeted
    [-O0]/[-O1] behavioural equalities for the emitter's fused fast
    paths and their documented fallbacks — cases the differential suite
    only reaches statistically. *)

open Helpers
open Lf_lang
module Ir = Lf_simd.Ir
module Opt = Lf_simd.Opt
module Vm = Lf_simd.Vm

let ir_of ?(level = 1) ?(p = 4) ?verify src =
  let prog = parse_program src in
  let frame = Lf_simd.Frame.create ~p (Lf_simd.Compile.var_names prog) in
  Opt.run ~level ~frame ?verify (Ir.of_block frame prog.Ast.p_body)

let rec unloc (s : Ir.stmt) =
  match s.Ir.s_node with Ir.LLoc (_, inner) -> unloc inner | _ -> s

(** The [n]th top-level statement, location wrappers stripped. *)
let nth (b : Ir.block) n = unloc b.(n)

let rhs_of (s : Ir.stmt) =
  match (unloc s).Ir.s_node with
  | Ir.LAssign (_, e) -> e
  | _ -> Alcotest.fail "statement is not an assignment"

(* ------------------------------------------------------------------ *)
(* Annotation placement                                                *)
(* ------------------------------------------------------------------ *)

(* Elementwise subtrees stay unfused at every level, intrinsic-bearing
   or not: the unfused engine runs each operator and intrinsic as a
   typed lane kernel.  Nothing folds constants either. *)
let t_fusion_policy () =
  let src =
    "PROGRAM t\n\
    \  PLURAL REAL r\n\
    \  PLURAL REAL a\n\
    \  PLURAL INTEGER i\n\
    \  r = sqrt(a * a) + 1.0\n\
    \  r = a * a + a\n\
    \  i = 2 + 3 * 4\n\
     END"
  in
  List.iter
    (fun level ->
      let b = ir_of ~level src in
      List.iter
        (fun n ->
          checkb
            (Fmt.str "-O%d statement %d builds no region" level n)
            ((rhs_of (nth b n)).Ir.x_fused = None))
        [ 0; 1; 2 ];
      match (rhs_of (nth b 2)).Ir.x_node with
      | Ir.XBin _ -> ()
      | _ -> Alcotest.failf "-O%d rewrote a constant expression" level)
    [ 0; 1; 2 ]

(* region construction value-numbers its postorder program: a gather
   (and the intrinsic applied to it) repeated within a reduction's
   argument is emitted once *)
let t_region_cse () =
  let b =
    ir_of
      "PROGRAM t\n\
      \  PLURAL INTEGER i\n\
      \  LOGICAL q\n\
      \  REAL x(8)\n\
      \  i = iproc\n\
      \  q = any(sqrt(x(i)) + sqrt(x(i)) > 0)\n\
       END"
  in
  match (rhs_of (nth b 1)).Ir.x_fused with
  | Some (Ir.FReduce ("any", { rg_ops })) ->
      let count p = Array.to_list rg_ops |> List.filter p |> List.length in
      checki "one gather after CSE" 1
        (count (function Ir.OGather _ -> true | _ -> false));
      checki "one sqrt after CSE" 1
        (count (function Ir.OIntr _ -> true | _ -> false))
  | _ -> Alcotest.fail "repeated-gather reduction must fuse"

(* a reduction fuses any fusible argument — including intrinsic-free
   chains, where skipping the materialized argument still pays; -O0
   leaves the tree untouched *)
let t_fused_reduction () =
  let src =
    "PROGRAM t\n\
    \  PLURAL REAL r\n\
    \  REAL s\n\
    \  r = iproc * 0.5\n\
    \  s = sum(r * r)\n\
     END"
  in
  (match (rhs_of (nth (ir_of src) 1)).Ir.x_fused with
  | Some (Ir.FReduce ("sum", _)) -> ()
  | _ -> Alcotest.fail "sum over a fusible argument must fuse");
  let e0 = rhs_of (nth (ir_of ~level:0 src) 1) in
  checkb "-O0 must leave the tree untouched"
    (e0.Ir.x_fused = None
    && match e0.Ir.x_node with Ir.XCall ("sum", [ _ ]) -> true | _ -> false)

let t_scatter_accumulate () =
  let b =
    ir_of
      "PROGRAM t\n\
      \  PLURAL INTEGER i\n\
      \  PLURAL REAL r\n\
      \  REAL x(8)\n\
      \  i = iproc\n\
      \  x(i) = x(i) + r\n\
      \  x(i) = r + x(i)\n\
       END"
  in
  checkb "x(i) = x(i) + e is scatter-accumulate" (nth b 1).Ir.s_accum;
  checkb "x(i) = e + x(i) is not (gather must be the left operand)"
    (not (nth b 2).Ir.s_accum)

(* scratch planning: result buffers of sites whose values are dead
   across statements share a pool group; -O0 plans nothing *)
let t_scratch_plan () =
  let src =
    "PROGRAM t\n\
    \  PLURAL REAL r\n\
    \  PLURAL REAL q\n\
    \  PLURAL REAL a\n\
    \  PLURAL REAL b\n\
    \  r = sqrt(a) + 1.0\n\
    \  q = sqrt(b) + 1.0\n\
     END"
  in
  let b = ir_of src in
  let s0 = (rhs_of (nth b 0)).Ir.x_scr
  and s1 = (rhs_of (nth b 1)).Ir.x_scr in
  checkb "first statement's root site gets a scratch group" (s0 >= 0);
  checkb "dead-across-statements sites share the group" (s0 = s1);
  let b0 = ir_of ~level:0 src in
  checki "-O0 leaves every site private" (-1) (rhs_of (nth b0 0)).Ir.x_scr

(* ------------------------------------------------------------------ *)
(* Kernels at p = 1024                                                 *)
(* ------------------------------------------------------------------ *)

(* [prog] flattened and SIMDized for [p] lanes, as [flattenc --target
   simd] does. *)
let simd_flatten ?(assume_inner_nonempty = false) ~p prog =
  let opts =
    {
      Lf_core.Pipeline.default_options with
      assume_inner_nonempty;
      target =
        Lf_core.Pipeline.Simd
          { decomp = Lf_core.Simdize.Cyclic; p = Ast.EInt p };
    }
  in
  match Lf_core.Pipeline.flatten_program ~opts prog with
  | Ok o -> o.Lf_core.Pipeline.program
  | Error e -> Alcotest.fail e

(* The flattened NBFORCE kernel at p = 1024 with a trivially cheap force
   function (the workload of [bench --paired stats]), so the run
   measures the engine rather than the force routine: the program and
   the set-up that binds its inputs. *)
let nbforce_kernel () =
  let p = 1024 in
  let mol = Lf_md.Workload.sod ~n:(2 * p) () in
  let pl = Lf_md.Workload.pairlist mol ~cutoff:8.0 in
  let n, maxp = Lf_kernels.Nbforce_src.params pl in
  let prog =
    simd_flatten ~assume_inner_nonempty:true ~p
      (Lf_kernels.Nbforce_src.program ())
  in
  let setup vm =
    Vm.register_func vm ~pure:true "force" (fun _ -> Values.VReal 1.0);
    Vm.bind_scalar vm "n" (Values.VInt n);
    Vm.bind_scalar vm "maxp" (Values.VInt maxp);
    Vm.bind_scalar vm "p" (Values.VInt p);
    Lf_kernels.Nbforce_src.bind_arrays pl ~n ~maxp ~set_global:(fun name a ->
        Vm.bind_global vm name a)
  in
  (p, prog, setup)

(* A scatter-dominated kernel in the flattened shape at p = 1024: a
   strided induction vector walks a global array with a
   gather-modify-scatter in the guarded body. *)
let scatter_stride_kernel () =
  let p = 1024 in
  let n = 64 * p in
  let prog =
    parse_program
      (Printf.sprintf
         "PROGRAM scatter\n\
         \  i = 1 + (iproc - 1)\n\
         \  WHILE (any(i <= n))\n\
         \    WHERE (i <= n)\n\
         \      g(i) = g(i) * 3 + i\n\
         \      i = i + %d\n\
         \    ENDWHERE\n\
         \  ENDWHILE\n\
          END"
         p)
  in
  let setup vm =
    Vm.bind_scalar vm "n" (Values.VInt n);
    Vm.bind_global vm "g" (Values.AInt (Nd.create [| n |] 0))
  in
  (p, prog, setup)

let runner ?(engine = `Compiled) ?jobs (p, prog, setup) ~opt =
  Vm.run ~engine ?jobs ~opt ~p ~setup prog

let nbforce_1024 ?engine ?jobs () = runner ?engine ?jobs (nbforce_kernel ())

(* ------------------------------------------------------------------ *)
(* Targeted -O0/-O1/-O2 behavioural equalities                         *)
(* ------------------------------------------------------------------ *)

let check_levels ?setup name src =
  let prog = parse_program src in
  let go opt = Vm.run ~engine:`Compiled ~opt ~p:8 ?setup prog in
  let a = go 0 and b = go 1 and c = go 2 in
  checkb (name ^ ": state -O0 = -O1") (Vm.state_equal a b);
  checkb
    (name ^ ": metrics -O0 = -O1")
    (Lf_simd.Metrics.equal a.Vm.metrics b.Vm.metrics);
  checkb (name ^ ": state -O1 = -O2") (Vm.state_equal b c);
  checkb
    (name ^ ": metrics -O1 = -O2")
    (Lf_simd.Metrics.equal b.Vm.metrics c.Vm.metrics)

(* the direct-store fast path (v = a op b over resolved leaves) and
   every documented fallback: mixed int/real promotion, in-place
   updates, masked stores, a scalar-only rhs (front-end tick at -O0)
   and a dest whose binding type the assignment changes *)
let t_direct_store_shapes () =
  check_levels "direct store"
    "PROGRAM t\n\
    \  PLURAL INTEGER a\n\
    \  PLURAL INTEGER b\n\
    \  PLURAL INTEGER v\n\
    \  PLURAL REAL x\n\
    \  PLURAL REAL y\n\
    \  PLURAL REAL w\n\
    \  PLURAL INTEGER v2\n\
    \  INTEGER k\n\
    \  k = 7\n\
    \  a = iproc\n\
    \  b = a * 2\n\
    \  v = a + b\n\
    \  v = v + 1\n\
    \  x = iproc * 0.5\n\
    \  y = x - 1.5\n\
    \  w = x * y\n\
    \  w = a + x\n\
    \  v = k + 1\n\
    \  WHERE (a > 3)\n\
    \    v = a - b\n\
    \  ENDWHERE\n\
    \  v2 = x + y\n\
     END"

(* a raising fused reduction must not short-circuit: lane 1 satisfies
   the predicate before lane 2 divides by zero, yet both levels must
   raise the identical error *)
let t_reduction_raises_like_o0 () =
  let prog =
    parse_program
      "PROGRAM t\n\
      \  PLURAL INTEGER z\n\
      \  z = iproc - 2\n\
      \  WHILE (any(10 / z > -100))\n\
      \    z = z + 100\n\
      \  ENDWHILE\n\
       END"
  in
  let err opt =
    match Vm.run ~engine:`Compiled ~opt ~p:8 prog with
    | _ -> None
    | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e)
      ->
        Some (Errors.to_message e)
  in
  match (err 0, err 1) with
  | Some m0, Some m1 ->
      checks "identical division-by-zero message across levels" m0 m1
  | _ -> Alcotest.fail "both levels must raise"

(* the typed per-lane call path re-boxes and bails when a user function
   changes its return type mid-vector *)
let t_typed_call_bail () =
  let setup vm =
    Vm.register_func vm ~pure:true "mix" (fun args ->
        match args with
        | [ Values.VInt n ] ->
            if n <= 2 then Values.VInt n
            else Values.VReal (float_of_int n)
        | _ -> Values.VInt 0)
  in
  check_levels ~setup "typed call bail"
    "PROGRAM t\n\
    \  PLURAL REAL r\n\
    \  r = mix(iproc)\n\
     END"

module Stats = Lf_obs.Stats

(* The --dump-ir bytes of a kernel at [opt]. *)
let dump_ir_string (p, prog, setup) ~opt =
  let path = Filename.temp_file "lf_ir" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (Vm.dump_ir ~opt ~p ~setup prog);
      In_channel.with_open_bin path In_channel.input_all)

(* [-O2] runs the [-O1] pipeline: the run's state, Metrics, Counters and
   [opt.*] section are equal at the two levels, and the IR dump differs
   only in its [opt_level] field. *)
let check_o2_is_o1 name kernel =
  let reading opt =
    Stats.enable ();
    Stats.reset ();
    Fun.protect
      ~finally:(fun () ->
        Stats.disable ();
        Stats.reset ())
      (fun () ->
        let vm = runner kernel ~opt in
        ( vm,
          Stats.snapshot ~sections:[ Stats.Counters ] (),
          Stats.snapshot ~sections:[ Stats.Opt ] () ))
  in
  let vm1, counters1, opt1 = reading 1 and vm2, counters2, opt2 = reading 2 in
  let pairs = Alcotest.(list (pair string int)) in
  checkb (name ^ ": state -O1 = -O2") (Vm.state_equal vm1 vm2);
  checkb
    (name ^ ": metrics -O1 = -O2")
    (Lf_simd.Metrics.equal vm1.Vm.metrics vm2.Vm.metrics);
  Alcotest.check pairs (name ^ ": Counters -O1 = -O2") counters1 counters2;
  Alcotest.check pairs (name ^ ": opt.* -O1 = -O2") opt1 opt2;
  let past_level opt =
    let d = dump_ir_string kernel ~opt in
    let prefix = Fmt.str "{\"opt_level\":%d," opt in
    let n = String.length prefix in
    checkb
      (Fmt.str "%s: the -O%d dump opens with its level" name opt)
      (String.starts_with ~prefix d);
    String.sub d n (String.length d - n)
  in
  checks
    (name ^ ": IR dump -O1 = -O2 past opt_level")
    (past_level 1) (past_level 2)

let t_o2_is_o1 () =
  check_o2_is_o1 "NBFORCE p=1024" (nbforce_kernel ());
  check_o2_is_o1 "scatter stride p=1024" (scatter_stride_kernel ())

(* ------------------------------------------------------------------ *)
(* Deterministic cost gate                                             *)
(* ------------------------------------------------------------------ *)

(* The words [f ()] allocates, exactly: the minor heap's count plus the
   blocks allocated straight in the major heap, which is where every
   block above [Max_young_wosize] (256 words) goes, such as a lane
   vector at p = 1024.  The major side is [Gc.counters]' major words
   less its promoted words, both exact; [Gc.quick_stat]'s major count
   only moves at major slices, and on OCaml 5 its minor count only at
   minor collections, so [Gc.minor_words] reads the minor side. *)
let alloc_words f =
  let _, promoted0, major0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let w1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  w1 -. w0 +. (major1 -. major0 -. (promoted1 -. promoted0))

let opt_run_counters =
  [
    "opt.fused_region_runs";
    "opt.fused_reduce_runs";
    "opt.accum_merged_runs";
  ]

(* One warm run (after a discarded warm-up run in the same process) with
   the telemetry off, then one with it on, each read with [alloc_words];
   the second also gives the [opt.*] run counters and the per-opcode
   [dispatch.*] Counters. *)
let warm_reading run ~opt =
  ignore (run ~opt);
  let words_off = alloc_words (fun () -> run ~opt) in
  Stats.enable ();
  Stats.reset ();
  Fun.protect
    ~finally:(fun () ->
      Stats.disable ();
      Stats.reset ())
    (fun () ->
      let words_on = alloc_words (fun () -> run ~opt) in
      ( (words_off, words_on),
        List.map
          (fun name ->
            (name, Stats.counter_value (Stats.counter ~section:Stats.Opt name)))
          opt_run_counters,
        List.filter
          (fun (name, _) -> String.starts_with ~prefix:"dispatch." name)
          (Stats.snapshot ~sections:[ Stats.Counters ] ()) ))

(* The budgets are the compiled engine's readings (default dev profile)
   of [alloc_words] over the whole warm [Vm.run], setup included, as
   (telemetry off, telemetry on).  The readings are deterministic, so
   the gate has no tolerance: an allocation added to a per-lane path
   fails it, in either heap, and one added to the per-step telemetry
   ([Stats] counters, [Pool]'s statistics, [Vm.timed]) fails the second
   budget. *)
let alloc_budget =
  [ (1, (2_933_843., 2_934_058.)); (2, (2_933_843., 2_934_058.)) ]

let opt_run_pins = [ (1, [ 0; 389; 388 ]); (2, [ 0; 389; 388 ]) ]

(* The per-opcode dispatch counts of the same run, exactly (the
   Counters section, so identical at every -O level and on every
   engine): a statement dispatched more or less often fails the gate
   even when the allocation budget still holds. *)
let dispatch_count_pins =
  let pins =
    [
      ("dispatch.assign", 1553);
      ("dispatch.call", 0);
      ("dispatch.frontend", 778);
      ("dispatch.reduce", 389);
      ("dispatch.where", 776);
      ("dispatch.while", 0);
    ]
  in
  [ (1, pins); (2, pins) ]

let t_alloc_gate () =
  let run = nbforce_1024 () in
  List.iter
    (fun (opt, (budget_off, budget_on)) ->
      let (words_off, words_on), counts, dispatch = warm_reading run ~opt in
      Alcotest.(check (list (pair string int)))
        (Fmt.str "-O%d dispatch.* counters" opt)
        (List.assoc opt dispatch_count_pins)
        dispatch;
      checkb
        (Fmt.str "-O%d words %.0f within the budget %.0f" opt words_off
           budget_off)
        (words_off <= budget_off);
      checkb
        (Fmt.str "-O%d words with telemetry on %.0f within the budget %.0f"
           opt words_on budget_on)
        (words_on <= budget_on);
      List.iter2
        (fun (name, got) want -> checki (Fmt.str "-O%d %s" opt name) want got)
        counts (List.assoc opt opt_run_pins))
    alloc_budget

(* The tree-walking reference engine on the same run, read with
   [alloc_words] around the whole [Vm.run], setup included.  Budget =
   this engine's exact reading (dev profile), pinned with no tolerance.
   Most of it, 4,938,934 words, is the lane vectors each vector
   instruction allocates in the major heap. *)
let treewalk_alloc_budget = 7_418_152.

let t_treewalk_alloc_gate () =
  let run = nbforce_1024 ~engine:`Tree_walk () in
  ignore (run ~opt:0);
  let words = alloc_words (fun () -> run ~opt:0) in
  checkb
    (Fmt.str "tree-walk words %.0f within the budget %.0f" words
       treewalk_alloc_budget)
    (words <= treewalk_alloc_budget)

(* The parallel engine's pool hand-offs on the same run at 2 jobs: one
   per join region, a function of the program alone (not of the cores or
   the scheduler), pinned exactly.  At p = 1024, two shard floors, the
   run has two shards; a narrower run would never dispatch.  Per WHILE
   iteration the regions end at the ANY test, the two WHERE splits and
   the [renorm] of the plural [force] call, so at most 4, plus the final
   ANY test that leaves the loop.  The count stays in the Volatile section
   ([Counters] must be identical across engines, and the serial engines
   never dispatch). *)
let dispatch_pins = [ (1, 1553); (2, 1553) ]

let t_dispatch_gate () =
  let run = nbforce_1024 ~engine:`Parallel ~jobs:2 () in
  List.iter
    (fun (opt, pin) ->
      ignore (run ~opt);
      Stats.enable ();
      Stats.reset ();
      let vm, dispatches =
        Fun.protect
          ~finally:(fun () ->
            Stats.disable ();
            Stats.reset ())
          (fun () ->
            let vm = run ~opt in
            ( vm,
              Stats.counter_value
                (Stats.counter ~section:Stats.Volatile "pool.dispatches") ))
      in
      (* one ANY per WHILE test, the last one false *)
      let iterations = vm.Vm.metrics.Lf_simd.Metrics.reductions - 1 in
      checki (Fmt.str "-O%d pool.dispatches" opt) pin dispatches;
      checkb
        (Fmt.str "-O%d %d dispatches over %d WHILE iterations, at most 4 each"
           opt dispatches iterations)
        (dispatches <= (4 * iterations) + 1))
    dispatch_pins

(* ------------------------------------------------------------------ *)
(* Scratch planning against the interference colouring                 *)
(* ------------------------------------------------------------------ *)

module Dataflow = Lf_analysis.Dataflow
module Cfg = Lf_analysis.Cfg

(* The oracle's own linearization of the evaluation order, the list
   form the planner used before it became allocation-free int-stack
   walks: one step per evaluation, over site numbers -- the sites whose
   result buffers it reads and the site it defines. *)
type step = {
  st_uses : int list;
  st_def : int option;
}

(* The evaluation steps of [b] and its sites, numbered in definition
   order; each site's number is written to its [x_scr] for the
   scatter-accumulate step to read. *)
let scratch_steps (b : Ir.block) : step array * Ir.expr array =
  let open Ir in
  let sites : Ir.expr list ref = ref [] in
  let nsites = ref 0 in
  let steps : step list ref = ref [] in
  let new_temp (e : Ir.expr) =
    let id = !nsites in
    incr nsites;
    sites := e :: !sites;
    id
  in
  let push uses def = steps := { st_uses = uses; st_def = def } :: !steps in
  (* Returns the temp holding the expression's result buffers, if the
     node owns any.  Mirrors the emitter's evaluation order. *)
  let rec ex (e : Ir.expr) : int option =
    match e.x_fused with
    | Some (FReduce _) ->
        (* folds straight to a front-end scalar: no result buffers *)
        push [] None;
        None
    | None -> (
        match e.x_node with
        | XConst _ | XVar _ -> None
        | XRange (lo, hi) ->
            let a = ex lo in
            let b = ex hi in
            push (List.filter_map Fun.id [ a; b ]) None;
            None
        | XUn (_, a) ->
            let ta = ex a in
            let t = new_temp e in
            e.x_scr <- t;
            push (Option.to_list ta) (Some t);
            Some t
        | XBin (_, a, b) ->
            let ta = ex a in
            let tb = ex b in
            let t = new_temp e in
            e.x_scr <- t;
            push (List.filter_map Fun.id [ ta; tb ]) (Some t);
            Some t
        | XCall (name, args) when Intrinsics.is_reduction name ->
            let ts = List.filter_map ex args in
            push ts None;
            None
        | XCall (_, args) ->
            let ts = List.filter_map ex args in
            let t = new_temp e in
            e.x_scr <- t;
            push ts (Some t);
            Some t
        | XIdx (_, _, args) ->
            let ts = List.filter_map ex args in
            let t = new_temp e in
            e.x_scr <- t;
            push ts (Some t);
            Some t)
  in
  let rec st (s : Ir.stmt) : unit =
    match s.s_node with
    | LLoc (_, inner) -> st inner
    | LNop | LGoto -> ()
    | LAssign (l, e) ->
        let te = ex e in
        let tix = List.filter_map ex l.l_index in
        (* the merged scatter-accumulate pass additionally reads the
           subscript evaluated inside the gather; it is covered by [te]
           (the gather is part of the right-hand side's subtree and its
           temp is kept live through the final step) *)
        let extra =
          if s.s_accum then
            match e.x_node with
            | XBin (_, g, rest) ->
                let t e = if e.x_scr >= 0 then [ e.x_scr ] else [] in
                t g @ t rest
                @ (match g.x_node with
                  | XIdx (_, _, [ gix ]) -> t gix
                  | _ -> [])
            | _ -> []
          else []
        in
        push (Option.to_list te @ tix @ extra) None
    | LScall (_, args) ->
        let ts = List.filter_map (fun (a, _) -> ex a) args in
        push ts None
    | LIf (c, t, f) | LWhere (c, t, f) ->
        let tc = ex c in
        push (Option.to_list tc) None;
        Array.iter st t;
        Array.iter st f
    | LWhile (c, b) ->
        let tc = ex c in
        push (Option.to_list tc) None;
        Array.iter st b
    | LDoWhile (b, c) ->
        Array.iter st b;
        let tc = ex c in
        push (Option.to_list tc) None
    | LDo (_, _, lo, hi, step, b) ->
        let ts =
          List.filter_map Fun.id
            [ ex lo; ex hi; Option.bind step ex ]
        in
        push ts None;
        Array.iter st b
  in
  Array.iter st b;
  (Array.of_list (List.rev !steps), Array.of_list (List.rev !sites))

(* The planner before it became one interval walk, kept as the oracle:
   backward liveness over a chain CFG of the steps ([Dataflow.solve]),
   an interference relation (a site defined at a step conflicts with
   every other site live after it) and greedy colouring in definition
   order. *)
let interference_colours (steps : step array) ntemps =
  let module S = Dataflow.IntSet in
  let nnodes = Array.length steps + 2 in
  let nodes =
    Array.init nnodes (fun id ->
        {
          Cfg.id;
          kind =
            (if id = 0 then Cfg.Entry
             else if id = nnodes - 1 then Cfg.Exit
             else Cfg.Join);
          loc = None;
          masked = false;
          succ = (if id = nnodes - 1 then [] else [ id + 1 ]);
          pred = (if id = 0 then [] else [ id - 1 ]);
        })
  in
  let cfg = { Cfg.nodes; entry = 0; exit_ = nnodes - 1 } in
  let inner i = i > 0 && i < nnodes - 1 in
  let gen i = if inner i then S.of_list steps.(i - 1).st_uses else S.empty in
  let kill i =
    if inner i then
      Option.fold ~none:S.empty ~some:S.singleton steps.(i - 1).st_def
    else S.empty
  in
  let sol =
    Dataflow.solve cfg
      { Dataflow.dir = Dataflow.Backward; nfacts = ntemps; gen; kill }
  in
  let conflict = Array.make ntemps S.empty in
  Array.iteri
    (fun i (st : step) ->
      Option.iter
        (fun d ->
          let live = S.remove d sol.Dataflow.out.(i + 1) in
          conflict.(d) <- S.union conflict.(d) live;
          S.iter (fun o -> conflict.(o) <- S.add d conflict.(o)) live)
        st.st_def)
    steps;
  let color = Array.make ntemps (-1) in
  for t = 0 to ntemps - 1 do
    let taken =
      S.fold
        (fun o acc -> if color.(o) >= 0 then color.(o) :: acc else acc)
        conflict.(t) []
    in
    let rec first g = if List.mem g taken then first (g + 1) else g in
    color.(t) <- first 0
  done;
  color

(* Lower [prog] and run the [-O1] pipeline, then re-plan its scratch
   groups: they must be the oracle's colours, site for site. *)
let plan_matches_oracle ~p (prog : Ast.program) =
  let frame = Lf_simd.Frame.create ~p (Lf_simd.Compile.var_names prog) in
  let b = Opt.run ~level:1 ~frame (Ir.of_block frame prog.Ast.p_body) in
  let steps, sites = scratch_steps b in
  let oracle = interference_colours steps (Array.length sites) in
  let nsites, groups = Opt.plan_scratch b in
  nsites = Array.length sites
  && groups = 1 + Array.fold_left max (-1) oracle
  && Array.for_all2 (fun (site : Ir.expr) c -> site.Ir.x_scr = c) sites oracle

let prop_scratch_oracle =
  qcheck_case ~count:300 "scratch groups equal the interference colouring"
    Gen.simd_prog_gen (plan_matches_oracle ~p:5)

let t_scratch_oracle_nbforce () =
  let prog =
    simd_flatten ~assume_inner_nonempty:true ~p:128
      (Lf_kernels.Nbforce_src.program ())
  in
  checkb "NBFORCE scratch groups equal the interference colouring"
    (plan_matches_oracle ~p:128 prog)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the [Json.t] tree the IR writer replaced        *)
(* ------------------------------------------------------------------ *)

let ir_json ~opt b =
  let buf = Buffer.create 4096 in
  Ir.write_json ~opt buf b;
  Buffer.contents buf

(* After every [Opt] phase at -O0/1/2, the streamed bytes equal the old
   tree's printed bytes. *)
let ir_json_matches_oracle ~p (prog : Ast.program) =
  List.for_all
    (fun opt ->
      let frame = Lf_simd.Frame.create ~p (Lf_simd.Compile.var_names prog) in
      let bad = ref [] in
      let compare_phase name b =
        let want = Lf_obs.Json.to_string (Oracle_ir_json.to_json ~opt b) in
        if not (String.equal (ir_json ~opt b) want) then bad := name :: !bad
      in
      ignore
        (Opt.run ~level:opt ~frame ~dump:compare_phase
           (Ir.of_block frame prog.Ast.p_body));
      !bad = []
      || QCheck.Test.fail_reportf "-O%d phases %s differ" opt
           (String.concat ", " !bad))
    [ 0; 1; 2 ]

let prop_ir_json_oracle =
  qcheck_case ~count:300 "oracle: streamed IR JSON equals the old tree's"
    Gen.simd_prog_gen (ir_json_matches_oracle ~p:5)

let t_ir_json_oracle_nbforce () =
  let prog =
    simd_flatten ~assume_inner_nonempty:true ~p:128
      (Lf_kernels.Nbforce_src.program ())
  in
  checkb "NBFORCE IR JSON equals the old tree's"
    (ir_json_matches_oracle ~p:128 prog)

(* ------------------------------------------------------------------ *)
(* Compile-time cost gates                                             *)
(* ------------------------------------------------------------------ *)

(* A 2-deep nest whose inner body repeats one guarded-update block [n]
   times, the shape of a generated 240-statement nest. *)
let guarded_nest n =
  let block =
    "      t1 = x(i) * 0.5 + y(j)\n\
    \      IF (t1 > w(i)) THEN\n\
    \        a(i) = a(i) + MIN(t1, w(i)) * 0.25\n\
    \      ELSE\n\
    \        b(i) = b(i) - MAX(w(i), t1)\n\
    \      ENDIF\n"
  in
  parse_program
    ("PROGRAM guarded\n\
     \  INTEGER n, m, i, j\n\
     \  INTEGER cnt(n)\n\
     \  REAL a(n)\n\
     \  REAL b(n)\n\
     \  REAL x(n)\n\
     \  REAL w(n)\n\
     \  REAL y(m)\n\
     \  REAL t1\n\
     \  DO i = 1, n\n\
     \    DO j = 1, cnt(i)\n"
    ^ String.concat "" (List.init n (fun _ -> block))
    ^ "    ENDDO\n  ENDDO\nEND\n")

let rec outer_loop = function
  | Ast.SLoc (_, s) -> outer_loop s
  | s -> s

(* The 2-deep nest as text, and SIMDized at p = 8 as flattenc would. *)
let guarded_src n = Pretty.program_to_string (guarded_nest n)
let guarded_simd n = simd_flatten ~p:8 (parse_program (guarded_src n))

let guarded_ir n =
  let prog = guarded_simd n in
  let frame = Lf_simd.Frame.create ~p:8 (Lf_simd.Compile.var_names prog) in
  Opt.run ~level:1 ~frame (Ir.of_block frame prog.Ast.p_body)

(* DO bounds that each own sites: the planner numbers them step, hi,
   lo, the order the IR dump's scratch groups have always followed. *)
let t_scratch_oracle_do_bounds () =
  let prog =
    parse_program
      "PROGRAM t\n\
      \  INTEGER i, n, s\n\
      \  INTEGER a(n)\n\
      \  s = 0\n\
      \  DO i = a(1) + 1, a(2) * 2, a(3) - 1\n\
      \    s = s + i\n\
      \  ENDDO\n\
       END\n"
  in
  checkb "DO bound scratch groups equal the colouring"
    (plan_matches_oracle ~p:8 prog)

(* The planner against the oracle on the nest the cost gate below reads. *)
let t_scratch_oracle_guarded () =
  checkb "guarded nest (N = 60) scratch groups equal the colouring"
    (plan_matches_oracle ~p:8 (guarded_simd 60))

let check_loop_words n =
  let prog = guarded_nest n in
  let loop =
    List.find
      (fun s -> match outer_loop s with Ast.SDo _ -> true | _ -> false)
      prog.Ast.p_body
  in
  alloc_words (fun () -> Lf_analysis.Parallel.check_loop loop)

let opt_words n =
  let prog = simd_flatten ~p:8 (guarded_nest n) in
  let frame = Lf_simd.Frame.create ~p:8 (Lf_simd.Compile.var_names prog) in
  let b = Ir.of_block frame prog.Ast.p_body in
  alloc_words (fun () -> Opt.run ~level:1 ~frame b)

(* Exact readings (dev profile) at N = 60, pinned with no tolerance as
   for the engine gate above. *)
let check_loop_budget = 48_730.
let opt_budget = 5_480.

(* The text layers at N = 60, with the same exact readings: parsing the
   printed source (9,628 bytes), writing the -O1 IR of its SIMDized form
   as JSON, and printing that SIMDized program (11,168 bytes).  Their
   large buffers and token arrays live in the major heap. *)
let parse_budget = 46_829.
let ir_json_budget = 37_942.
let print_budget = 5_830.

let parse_words n =
  let src = guarded_src n in
  alloc_words (fun () -> Parser.program_of_string src)

let ir_json_words n =
  let ir = guarded_ir n in
  alloc_words (fun () ->
      let b = Buffer.create 65536 in
      Ir.write_json ~opt:1 b ir;
      b)

let print_words n =
  let prog = guarded_simd n in
  alloc_words (fun () -> Pretty.program_to_string prog)

let t_compile_cost_gate () =
  let w60 = check_loop_words 60 in
  checkb
    (Fmt.str "check_loop words %.0f within the budget %.0f" w60
       check_loop_budget)
    (w60 <= check_loop_budget);
  let o60 = opt_words 60 in
  checkb
    (Fmt.str "Opt.run -O1 words %.0f within the budget %.0f" o60
       opt_budget)
    (o60 <= opt_budget);
  (* an all-pairs scan does 4x the pair work per doubling *)
  let w120 = check_loop_words 120 in
  checkb
    (Fmt.str "check_loop words grow linearly: N=120 %.0f <= 2.2 x N=60 %.0f"
       w120 w60)
    (w120 <= 2.2 *. w60);
  let budget what words budget =
    checkb
      (Fmt.str "%s words %.0f within the budget %.0f" what words budget)
      (words <= budget)
  in
  let p60 = parse_words 60 in
  budget "Parser.program_of_string" p60 parse_budget;
  budget "Ir.write_json -O1" (ir_json_words 60) ir_json_budget;
  budget "Pretty.program_to_string" (print_words 60) print_budget;
  let p120 = parse_words 120 in
  checkb
    (Fmt.str "parse words grow linearly: N=120 %.0f <= 2.2 x N=60 %.0f" p120
       p60)
    (p120 <= 2.2 *. p60)

(* The streamed --dump-ir file of the guarded nest (larger than the 64 KB
   drain threshold) equals the old tree's bytes. *)
let t_dump_ir_file () =
  let prog = guarded_simd 60 in
  let want =
    Lf_obs.Json.to_string (Oracle_ir_json.to_json ~opt:1 (guarded_ir 60))
  in
  checkb "the dump spans more than one 64 KB chunk"
    (String.length want > 65536);
  let path = Filename.temp_file "lf_ir" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (Vm.dump_ir ~opt:1 ~p:8 prog);
      checks "Vm.dump_ir bytes" want
        (In_channel.with_open_bin path In_channel.input_all))

(* A warm compiled [Vm.run_src] hit at -O1 on the guarded nest (6
   blocks, 74 lines once SIMDized at p = 8) whose loop body never runs
   (n = 0): the fixed cost of a cache hit, i.e. VM creation, the
   declarations and the re-emission of every closure of the cached IR,
   read with [alloc_words] around the whole call.  Exact reading (dev
   profile), pinned with no tolerance. *)
let warm_hit_budget = 11_750.

let t_warm_hit_gate () =
  let src = Pretty.program_to_string (guarded_simd 6) in
  let cache = Lf_simd.Progcache.create () in
  let setup vm =
    Vm.bind_scalar vm "n" (Values.VInt 0);
    Vm.bind_scalar vm "m" (Values.VInt 0)
  in
  let run () = Vm.run_src ~engine:`Compiled ~opt:1 ~cache ~p:8 ~setup src in
  ignore (run ());
  ignore (run ());
  let vm = ref None in
  let words = alloc_words (fun () -> vm := Some (run ())) in
  (* the lane set-up ahead of the outer WHILE: [i = ...], [t1_1 = ...]
     and the WHERE over [t1_1]; the all-false ANY ends the run *)
  checki "only the three entry steps ran" 3
    (Option.get !vm).Vm.metrics.Lf_simd.Metrics.steps;
  checkb
    (Fmt.str "warm -O1 hit words %.0f within the budget %.0f" words
       warm_hit_budget)
    (words <= warm_hit_budget)

let suite =
  [
    case "-O1 builds no elementwise regions" t_fusion_policy;
    case "region CSE: repeated gathers evaluate once" t_region_cse;
    case "reductions fuse fusible arguments" t_fused_reduction;
    case "scatter-accumulate marking" t_scatter_accumulate;
    case "scratch planning shares dead buffers" t_scratch_plan;
    prop_scratch_oracle;
    case "scratch groups on NBFORCE equal the colouring"
      t_scratch_oracle_nbforce;
    case "scratch groups on a guarded nest equal the colouring"
      t_scratch_oracle_guarded;
    case "scratch groups on DO bounds equal the colouring"
      t_scratch_oracle_do_bounds;
    case "direct-store shapes and fallbacks" t_direct_store_shapes;
    case "raising fused reduction never short-circuits"
      t_reduction_raises_like_o0;
    case "typed call path bails on mixed return types" t_typed_call_bail;
    case "-O2 runs the -O1 pipeline: NBFORCE and scatter stride" t_o2_is_o1;
    case "allocation and fused-run gate: warm NBFORCE p=1024" t_alloc_gate;
    case "allocation gate: tree-walk NBFORCE p=1024" t_treewalk_alloc_gate;
    case "dispatch gate: parallel NBFORCE p=1024, 2 jobs" t_dispatch_gate;
    prop_ir_json_oracle;
    case "oracle: NBFORCE IR JSON" t_ir_json_oracle_nbforce;
    case "oracle: --dump-ir file of a large nest" t_dump_ir_file;
    case "compile cost gate: check_loop and -O1 on a guarded nest"
      t_compile_cost_gate;
    case "allocation gate: warm compiled -O1 hit, empty loop" t_warm_hit_gate;
  ]
