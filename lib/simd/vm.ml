(** The SIMD virtual machine: a lockstep machine for F90simd programs.

    One control unit issues every instruction; [p] lanes execute it under
    the current activity mask (the WHERE mask stack).  This reproduces the
    paper's execution model exactly: a masked-out processor still "steps
    through the operation ... in an idle state until all processors have
    completed the operation" — which is why [Metrics.steps] counts every
    vector instruction once regardless of how many lanes are active, and
    why the unflattened and flattened versions of a program differ in
    step count exactly as Equations 2 and 1′ predict.

    This module holds the machine's variable table and its entry points;
    the one execution engine is the compiled one: [Compile.lower] turns
    the program into IR, [Opt] annotates it and [Compile.emit] runs it
    against a [Frame] of typed slots.  [Lf_testgen.Ref_vm] is its boxed,
    lane-by-lane reference.

    Data model:
    - plural scalars: one typed lane vector per variable ([Frame.lanes]:
      unboxed int/real/logical lanes, boxed when their types are mixed);
    - plural arrays (declared [PLURAL t a(d)]): per-lane storage, realized
      as a global array with a leading lane dimension;
    - front-end scalars and global (distributed) arrays: shared storage;
      a reference through a plural subscript is a gather, an assignment a
      scatter.

    The predefined plural variable [iproc] holds 1..P. *)

open Lf_lang
open Lf_lang.Ast
open Values

include Vmstate

(* ------------------------------------------------------------------ *)
(* Variable binding                                                    *)
(* ------------------------------------------------------------------ *)

let bind_scalar vm name v = Hashtbl.replace vm.vars name (VScalar (ref v))

let bind_global vm name a = Hashtbl.replace vm.vars name (VGlobal a)

let bind_plural_arr vm name ty dims =
  let dims = Array.append [| vm.p |] dims in
  Hashtbl.replace vm.vars name (VPluralArr (alloc_arr ty dims))

let find vm name =
  match Hashtbl.find_opt vm.vars name with
  | Some e -> e
  | None -> Errors.runtime_error "undefined variable %s" name

let find_opt vm name = Hashtbl.find_opt vm.vars name

(** Read back a plural variable (e.g. for assertions in tests). *)
let read_plural vm name =
  match find vm name with
  | VPlural l -> Frame.values_of_lanes l
  | _ -> Errors.runtime_error "%s is not a plural scalar" name

let read_global vm name =
  match find vm name with
  | VGlobal a -> a
  | VPluralArr a -> a
  | _ -> Errors.runtime_error "%s is not an array" name

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

(** Allocate declared variables; plural scalars get one slot per lane,
    plural arrays a leading lane dimension.  Pre-seeded bindings (via
    [bind_*]) are kept. *)
(* An array extent: a front-end expression of literals, front-end
   scalars and operators, evaluated left to right. *)
let rec extent vm (e : expr) =
  match e with
  | EInt n -> VInt n
  | EReal f -> VReal f
  | EBool b -> VBool b
  | EVar v -> (
      match find vm v with
      | VScalar r -> !r
      | VPlural _ -> Errors.runtime_error "plural value in a front-end context"
      | VGlobal _ | VPluralArr _ ->
          Errors.runtime_error "array value in a scalar context")
  | EUn (op, a) -> Scalar_ops.apply_unop op (extent vm a)
  | EBin (op, a, b) ->
      let x = extent vm a in
      Scalar_ops.apply_binop op x (extent vm b)
  | ERange _ | ECall _ | EIdx _ ->
      Errors.runtime_error
        "array extent %s is not an expression of front-end scalars"
        (Pretty.expr_to_string e)

let declare vm (decls : decl list) =
  List.iter
    (fun d ->
      if not (Hashtbl.mem vm.vars d.dc_name) then
        let dims () =
          Array.of_list (List.map (fun e -> as_int (extent vm e)) d.dc_dims)
        in
        match (d.dc_plural, d.dc_dims) with
        | false, [] -> bind_scalar vm d.dc_name (zero_of d.dc_type)
        | false, _ -> bind_global vm d.dc_name (alloc_arr d.dc_type (dims ()))
        | true, [] ->
            Hashtbl.replace vm.vars d.dc_name
              (VPlural (Frame.make_lanes vm.p (zero_of d.dc_type)))
        | true, _ -> bind_plural_arr vm d.dc_name d.dc_type (dims ()))
    decls

(* ------------------------------------------------------------------ *)
(* Running a program                                                   *)
(* ------------------------------------------------------------------ *)

(** Frame name table: every variable the program mentions ([from_ast],
    which the program cache precomputes so its warm path does not re-walk
    the AST) plus every pre-seeded VM binding (setup-bound globals,
    parameters). *)
let frame_names vm from_ast =
  let seen = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace seen n ()) from_ast;
  let extra =
    Hashtbl.fold
      (fun n _ acc -> if Hashtbl.mem seen n then acc else n :: acc)
      vm.vars []
  in
  from_ast @ List.sort compare extra

(* Emit [ir] against [frame] (created with the layout [ir] was lowered
   for) and run it under a full mask.  State is imported at the start and
   after every external CALL, and flushed back at the end (also on the
   error path, so a failing run leaves the partial state of the
   statements it completed). *)
let run_compiled vm ~opt ~frame ir =
  let compiled = Compile.emit ~vm ~frame ~opt ir in
  import_frame vm frame;
  Fun.protect
    ~finally:(fun () -> flush_frame vm frame)
    (fun () -> compiled (Frame.Mask.create_full vm.p))

module Stats = Lf_obs.Stats

let st_run_wall = Stats.timer "vm.run_wall"
let st_run_cpu = Stats.gauge "vm.run_cpu_s"
let st_minor_words = Stats.gauge "gc.minor_words"
let st_promoted_words = Stats.gauge "gc.promoted_words"
let st_major_words = Stats.gauge "gc.major_words"
let st_minor_colls = Stats.counter ~section:Stats.Volatile "gc.minor_collections"
let st_major_colls = Stats.counter ~section:Stats.Volatile "gc.major_collections"

(* [f vm x] under the telemetry bracket of [run] and [run_src]: GC
   deltas and run timers ([Volatile]).  The [finally] records even when
   the run dies (fuel, runtime error), so manifests of failing runs
   still carry the cost up to the fault.  The word counts
   are exact: minor words are the control domain's [Gc.minor_words],
   promoted and major words come from [Gc.counters].  On OCaml 5
   [Gc.quick_stat]'s minor count only moves at minor collections and its
   major count only at major slices, and [Gc.counters]' minor count is
   not exact either.  Without telemetry it is a direct call, with no
   closure. *)
let timed f vm x =
  if not (Stats.enabled ()) then f vm x
  else
    let g0 = Gc.quick_stat () in
    let _, promoted0, major0 = Gc.counters () in
    let c0 = Sys.time () in
    (* an immediate, so the [finally] closure boxes nothing *)
    let t0 = Int64.to_int (Stats.now_ns ()) in
    let w0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let w1 = Gc.minor_words () in
        let t1 = Int64.to_int (Stats.now_ns ()) in
        let c1 = Sys.time () in
        let _, promoted1, major1 = Gc.counters () in
        let g1 = Gc.quick_stat () in
        Stats.add_span_ns st_run_wall (Int64.of_int (t1 - t0));
        Stats.add_gauge st_run_cpu (c1 -. c0);
        Stats.add_gauge st_minor_words (w1 -. w0);
        Stats.add_gauge st_promoted_words (promoted1 -. promoted0);
        Stats.add_gauge st_major_words (major1 -. major0);
        Stats.add st_minor_colls (g1.minor_collections - g0.minor_collections);
        Stats.add st_major_colls (g1.major_collections - g0.major_collections))
      (fun () -> f vm x)

(* Run a program on the VM.  [setup] may pre-bind globals and parameters
   (problem sizes, input arrays) before declarations are processed.  The
   program is lowered against a frame covering its names plus anything
   pre-seeded in [vm.vars], inside the bracket. *)
let run ?fuel ?(opt = 1) ?(verify = false) ~p ?(setup = fun _ -> ())
    (prog : program) : t =
  let vm = create ?fuel ~p () in
  setup vm;
  declare vm prog.p_decls;
  timed
    (fun vm prog ->
      let names = frame_names vm (Compile.var_names prog) in
      let frame = Frame.create ~p names in
      run_compiled vm ~opt ~frame
        (Compile.lower ~frame ~opt ~verify prog.p_body))
    vm prog;
  vm

(* ------------------------------------------------------------------ *)
(* Source-level entry with the program cache                           *)
(* ------------------------------------------------------------------ *)

let run_src ?fuel ?(opt = 1) ?(verify = false) ?cache ~p
    ?(setup = fun _ -> ()) (src : string) : t =
  match cache with
  | None ->
      run ?fuel ~opt ~verify ~p ~setup (Lf_lang.Parser.program_of_string src)
  | Some cache ->
      let key = Progcache.key ~md5:(Digest.string src) ~opt ~verify ~p in
      let entry, hit =
        match Progcache.find cache key with
        | Some e -> (e, true)
        | None ->
            let t0 = Stats.now_ns () in
            let prog = Lf_lang.Parser.program_of_string src in
            let front_ns = Int64.sub (Stats.now_ns ()) t0 in
            (Progcache.insert cache key ~front_ns prog, false)
      in
      let prog = entry.Progcache.e_prog in
      let vm = create ?fuel ~p () in
      setup vm;
      declare vm prog.p_decls;
      let layout = frame_names vm entry.Progcache.e_ast_names in
      let ir, warm =
        match entry.Progcache.e_lowered with
        | Some (lay, ir) when lay = layout -> (ir, true)
        | _ ->
            (* First run under this key (or the setup seeded a different
               extras set): pay the front end once, against a frame
               created with this exact layout, and remember it.  A
               [Verify.Error] or type error propagates before anything
               is stored, so every warm retry fails with the identical
               message. *)
            let t0 = Stats.now_ns () in
            let f = Frame.create ~p layout in
            let ir = Compile.lower ~frame:f ~opt ~verify prog.p_body in
            Progcache.add_front_ns entry (Int64.sub (Stats.now_ns ()) t0);
            entry.Progcache.e_lowered <- Some (layout, ir);
            entry.Progcache.e_frames <- [ f ];
            (ir, false)
      in
      if hit && warm then Progcache.credit_warm entry;
      (* a warm run re-emits the cached IR against a pooled frame created
         with the exact layout it was lowered for *)
      let frame = Progcache.take_frame entry ~p layout in
      Fun.protect
        ~finally:(fun () -> Progcache.release_frame entry frame)
        (fun () ->
          timed (fun vm frame -> run_compiled vm ~opt ~frame ir) vm frame);
      vm

(* The frame and unoptimized IR [run] would lower [prog] to: a fresh VM
   set up and declared as for a run, nothing executed. *)
let lower_standalone ~p ~setup (prog : program) =
  let vm = create ~p () in
  setup vm;
  declare vm prog.p_decls;
  let frame = Frame.create ~p (frame_names vm (Compile.var_names prog)) in
  (frame, Ir.of_block frame prog.p_body)

let dump_ir ?(opt = 1) ~p ?(setup = fun _ -> ()) (prog : program) =
  let frame, ir = lower_standalone ~p ~setup prog in
  let ir = Opt.run ~level:opt ~frame ir in
  fun oc -> Lf_obs.Json.stream oc (fun ~spill b -> Ir.write_json ~spill ~opt b ir)

let dump_ir_phases ?(opt = 1) ~p ?(setup = fun _ -> ()) (prog : program) :
    (string * string) list =
  let frame, ir = lower_standalone ~p ~setup prog in
  let acc = ref [] in
  (* the pipeline annotates one mutable tree in place; writing the JSON
     inside the callback snapshots each phase's state *)
  let snapshot b =
    let buf = Buffer.create 4096 in
    Ir.write_json ~opt buf b;
    Buffer.contents buf
  in
  ignore
    (Opt.run ~level:opt ~frame
       ~dump:(fun name b -> acc := (name, snapshot b) :: !acc)
       ir);
  List.rev !acc

(** Standalone verification without executing: lower against the same
    frame name table [run] would use and run the [Opt] pipeline at [opt]
    with the IR verifier enabled at every phase boundary.
    @raise Verify.Error on a broken invariant. *)
let verify_ir ?(opt = 1) ~p ?(setup = fun _ -> ()) (prog : program) : unit =
  let frame, ir = lower_standalone ~p ~setup prog in
  ignore (Opt.run ~level:opt ~frame ~verify:true ir)

(* ------------------------------------------------------------------ *)
(* Engine-equivalence checks                                           *)
(* ------------------------------------------------------------------ *)

let entry_equal a b =
  match (a, b) with
  | VScalar r1, VScalar r2 -> Values.equal_value !r1 !r2
  | VPlural l1, VPlural l2 ->
      let n = Frame.lanes_length l1 in
      n = Frame.lanes_length l2
      &&
      let rec go i =
        i >= n
        || Values.equal_value (Frame.lane_value l1 i) (Frame.lane_value l2 i)
           && go (i + 1)
      in
      go 0
  | VGlobal a1, VGlobal a2 | VPluralArr a1, VPluralArr a2 ->
      Values.equal_value (VArr a1) (VArr a2)
  | _ -> false

(** Same variable table: same names bound to the same kind of entry with
    equal values (used by the tests that compare two runs). *)
let state_equal vma vmb =
  Hashtbl.length vma.vars = Hashtbl.length vmb.vars
  && Hashtbl.fold
       (fun k e acc ->
         acc
         &&
         match Hashtbl.find_opt vmb.vars k with
         | Some e' -> entry_equal e e'
         | None -> false)
       vma.vars true
