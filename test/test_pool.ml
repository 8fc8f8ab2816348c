(** Unit tests for the Domain pool and the shard partition: edge cases
    of [Pool.ranges] (p not divisible by jobs, jobs > p, jobs = 1,
    p = 0, widths at the shard floor), the partition invariants as a
    QCheck property, exception ordering across shards (lowest shard wins
    = globally first failing lane), and empty-mask reductions with empty
    per-shard partials.  Every case that needs several shards runs at a
    multiple of [Pool.min_shard], so each jobs count gets the shards it
    is named for. *)

open Helpers
module Pool = Lf_simd.Pool
module Vm = Lf_simd.Vm
open Lf_lang

let pp_ranges ppf rs =
  Fmt.pf ppf "%a"
    Fmt.(array ~sep:(any ";") (pair ~sep:(any ",") int int))
    rs

let check_ranges msg expected actual =
  checkb
    (Fmt.str "%s: expected %a, got %a" msg pp_ranges expected pp_ranges actual)
    (expected = actual)

let t_ranges_edges () =
  let floor = Pool.min_shard in
  let chunk = Pool.chunk in
  (* p = 0: one empty shard *)
  check_ranges "p=0" [| (0, 0) |] (Pool.ranges ~p:0 ~jobs:4);
  (* p below one chunk: a single shard regardless of jobs *)
  check_ranges "p=5 jobs=3" [| (0, 5) |] (Pool.ranges ~p:5 ~jobs:3);
  check_ranges "p=64 jobs=8" [| (0, 64) |] (Pool.ranges ~p:64 ~jobs:8);
  (* jobs = 1 degenerates to the serial partition *)
  check_ranges "p=1000 jobs=1" [| (0, 1000) |] (Pool.ranges ~p:1000 ~jobs:1);
  check_ranges "p=4*floor jobs=1"
    [| (0, 4 * floor) |]
    (Pool.ranges ~p:(4 * floor) ~jobs:1);
  (* below two floors: one shard at any jobs count *)
  check_ranges "p=2*floor-1 jobs=2"
    [| (0, (2 * floor) - 1) |]
    (Pool.ranges ~p:((2 * floor) - 1) ~jobs:2);
  check_ranges "p=128 jobs=64" [| (0, 128) |] (Pool.ranges ~p:128 ~jobs:64);
  (* at two floors: two shards of one floor each, at any jobs > 1 *)
  check_ranges "p=2*floor jobs=7"
    [| (0, floor); (floor, 2 * floor) |]
    (Pool.ranges ~p:(2 * floor) ~jobs:7);
  (* p not divisible by jobs: chunk-aligned boundaries, and the ragged
     tail lands in the last shard, which stays above the floor *)
  check_ranges "p=2*floor+76 jobs=3"
    [| (0, floor + chunk); (floor + chunk, (2 * floor) + 76) |]
    (Pool.ranges ~p:((2 * floor) + 76) ~jobs:3);
  check_ranges "p=4*floor jobs=3"
    [| (0, 10 * chunk); (10 * chunk, 21 * chunk); (21 * chunk, 4 * floor) |]
    (Pool.ranges ~p:(4 * floor) ~jobs:3);
  (* jobs above what the floor allows: p / min_shard shards, never a
     narrow one *)
  check_ranges "p=2*floor+2 jobs=64"
    [| (0, floor); (floor, (2 * floor) + 2) |]
    (Pool.ranges ~p:((2 * floor) + 2) ~jobs:64);
  (* invalid jobs *)
  (match Pool.ranges ~p:8 ~jobs:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 must be rejected");
  match Pool.ranges ~p:8 ~jobs:(-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative jobs must be rejected"

(* the partition invariants, for arbitrary p and jobs; p reaches 24
   floors, so up to 24 shards *)
let t_ranges_invariants =
  qcheck_case ~count:500 "ranges: ascending, disjoint, covering, aligned"
    QCheck.Gen.(pair (0 -- (24 * Pool.min_shard)) (1 -- 100))
    (fun (p, jobs) ->
      let rs = Pool.ranges ~p ~jobs in
      let n = Array.length rs in
      n >= 1
      && n <= jobs
      (* as many shards as the floor allows, one below two floors *)
      && n = max 1 (min jobs (p / Pool.min_shard))
      && fst rs.(0) = 0
      && snd rs.(n - 1) = p
      && Array.for_all (fun (lo, hi) -> lo <= hi) rs
      (* no shard of a split partition is narrower than the floor *)
      && (n = 1
         || Array.for_all (fun (lo, hi) -> hi - lo >= Pool.min_shard) rs)
      (* contiguous: each shard starts where the previous ended *)
      && List.for_all
           (fun i -> snd rs.(i) = fst rs.(i + 1))
           (List.init (n - 1) Fun.id)
      (* interior boundaries are chunk multiples *)
      && List.for_all
           (fun i -> fst rs.(i) mod Pool.chunk = 0)
           (List.init n Fun.id)
      (* the grid depends only on p: refining jobs never moves a
         boundary off the chunk grid *)
      && Array.for_all
           (fun (lo, hi) -> hi - lo <= Pool.chunk * Pool.nchunks p)
           rs
      (* jobs = 1 is the serial partition at every width *)
      && Pool.ranges ~p ~jobs:1 = [| (0, p) |])

(* jobs = 1 degenerates to the serial executor: same single shard,
   inline execution *)
let t_degenerate_serial () =
  let p = 4 * Pool.min_shard in
  let par = Pool.parallel_exec ~p ~jobs:1 in
  let ser = Pool.serial_exec ~p in
  checkb "same partition" (par.Pool.x_shards = ser.Pool.x_shards);
  let seen = ref [] in
  par.Pool.x_run (fun s lo hi -> seen := (s, lo, hi) :: !seen);
  checkb "one inline shard" (!seen = [ (0, 0, p) ])

(* every shard of a pool-backed executor runs exactly once, covering
   the whole range, by the join that ends the region *)
let t_pool_dispatch_covers () =
  let p = 4 * Pool.min_shard in
  let exec = Pool.parallel_exec ~p ~jobs:4 in
  checki "four shards" 4 (Pool.nshards exec);
  let hits = Array.make p 0 in
  exec.Pool.x_run (fun _ lo hi ->
      for i = lo to hi - 1 do
        (* each lane belongs to exactly one shard: no racing writes *)
        hits.(i) <- hits.(i) + 1
      done);
  Pool.sync exec;
  checkb "every lane executed exactly once"
    (Array.for_all (fun c -> c = 1) hits)

(* when several shards raise, the lowest shard's exception wins — the
   globally first failing lane, matching the serial scan order *)
let t_exception_ordering () =
  let p = 7 * Pool.min_shard in
  let exec = Pool.parallel_exec ~p ~jobs:7 in
  checki "seven shards" 7 (Pool.nshards exec);
  (match
     exec.Pool.x_run (fun s _ _ ->
         if s >= 1 then failwith (Printf.sprintf "shard %d" s));
     Pool.sync exec
   with
  | exception Failure m -> checks "lowest failing shard wins" "shard 1" m
  | () -> Alcotest.fail "expected a rethrown shard failure");
  (* and the pool survives for the next dispatch *)
  let total = ref 0 in
  let mu = Mutex.create () in
  exec.Pool.x_run (fun _ lo hi ->
      Mutex.lock mu;
      total := !total + (hi - lo);
      Mutex.unlock mu);
  Pool.sync exec;
  checki "pool usable after a failure" p !total

(* dividing by (iproc - c) fails first on lane c-1; at jobs > 1 that
   lane sits in shard 0 while later shards also fail — the reported
   error must still be lane c-1's, identically to the serial engines.
   At 16 floors every jobs count gets that many shards. *)
let t_first_failing_lane () =
  let src = "u = 1 / (iproc - 2)\n" in
  let prog = Ast.program "t" (parse_block src) in
  let msg ?jobs engine =
    match Vm.run ~engine ?jobs ~p:(16 * Pool.min_shard) prog with
    | _ -> Alcotest.fail "expected a division error"
    | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
        Errors.to_message e
  in
  let reference = msg `Tree_walk in
  checks "compiled error" reference (msg `Compiled);
  List.iter
    (fun jobs -> checks "parallel error" reference (msg ~jobs `Parallel))
    [ 1; 2; 7; 16 ]

(* Within one join region the parallel engine runs every shard's
   pending lane loops before it looks at errors, so a later instruction
   can fail on a low shard while an earlier one fails on a high shard.
   Here line 5's gather leaves [g] on the last two lanes only (the
   highest shard at every jobs count) and line 6 divides by zero on the
   first lane (shard 0); the plurals are declared, so nothing between
   them joins.  The serial engines raise line 5's error, and so must
   the parallel one: the lowest pending instruction wins, not the
   lowest shard.  The fuel sweep
   moves a fuel fault (raised by the control unit, not a lane) through
   the region: before, on and after each failing instruction, the first
   fault in program order must win — a pending lane error that comes
   earlier beats the fuel fault, a later one never runs.  At 8 floors
   each jobs count gets that many shards. *)
let region_error_src p =
  Printf.sprintf
    {|PROGRAM t
  PLURAL INTEGER a, b, c, d
  INTEGER g(%d)
  a = iproc * 2
  b = g(iproc + 1)
  c = 7 / (iproc - 1)
  d = a + c
END
|}
    (p - 1)

let t_region_error_order () =
  let p = 8 * Pool.min_shard in
  let prog = Parser.program_of_string (region_error_src p) in
  let setup vm =
    Vm.bind_global vm "g"
      (Values.AInt (Nd.of_array (Array.init (p - 1) Fun.id)))
  in
  let msg ?fuel ?jobs ?opt engine =
    match Vm.run ?fuel ~engine ?jobs ?opt ~p ~setup prog with
    | _ -> "no error"
    | exception ((Errors.Runtime_error _ | Errors.Runtime_error_at _) as e) ->
        Errors.to_message e
  in
  let reference = msg `Tree_walk in
  checkb
    (Fmt.str "the reference fails at line 5: %s" reference)
    (Astring_contains.contains reference "at 5:");
  List.iter
    (fun fuel ->
      let reference = msg ?fuel `Tree_walk in
      let fuel_s = Option.fold ~none:"no fuel limit" ~some:string_of_int fuel in
      List.iter
        (fun opt ->
          checks
            (Fmt.str "compiled -O%d, %s" opt fuel_s)
            reference
            (msg ?fuel ~opt `Compiled);
          List.iter
            (fun jobs ->
              checks
                (Fmt.str "parallel -O%d jobs=%d, %s" opt jobs fuel_s)
                reference
                (msg ?fuel ~jobs ~opt `Parallel))
            [ 2; 3; 7 ])
        [ 0; 1; 2 ])
    (None :: List.init 6 (fun k -> Some (k + 1)))

(* DO loops issue lane loops without a join.  In the first loop the
   regions grow past the 512-entry cap, and a fused region reads the
   loop variable [k] through a cell that changes every iteration while
   the earlier iterations' loops are still pending.  In the second, a
   global array is gathered at other lanes' elements and then scattered
   lane-disjointly, a serial store run that must wait for the pending
   gathers.  State and Metrics must match the tree-walker at every jobs
   count; at 4 floors, 2 jobs make 2 shards and 3 jobs 3. *)
let long_region_src p =
  Printf.sprintf
    {|PROGRAM t
  INTEGER k
  INTEGER g(%d)
  PLURAL INTEGER w, y, z
  w = 0
  y = 0
  z = 0
  DO k = 1, 300
    y = y + abs(k - 150)
    w = w + k
  ENDDO
  DO k = 1, 100
    z = z + g(%d - iproc)
    g(iproc) = y + k
  ENDDO
END
|}
    p (p + 1)

let t_long_regions () =
  let p = 4 * Pool.min_shard in
  let prog = Parser.program_of_string (long_region_src p) in
  let setup vm =
    Vm.bind_global vm "g" (Values.AInt (Nd.of_array (Array.init p Fun.id)))
  in
  let run ?jobs ?opt engine = Vm.run ?jobs ?opt ~engine ~p ~setup prog in
  let tree = run `Tree_walk in
  List.iter
    (fun opt ->
      List.iter
        (fun jobs ->
          let vm = run ~jobs ~opt `Parallel in
          let what = Fmt.str "parallel -O%d jobs=%d" opt jobs in
          checkb (what ^ " state") (Vm.state_equal tree vm);
          checkb (what ^ " metrics")
            (Lf_simd.Metrics.equal tree.Vm.metrics vm.Vm.metrics))
        [ 2; 3 ])
    [ 1; 2 ]

(* Plural calls of user functions at [-O1] fill unboxed per-site
   buffers shard by shard; the result is typed only when every shard saw
   one scalar type.  [within] mixes types inside shard 0, [across] is
   int on the first floor of lanes and real elsewhere (so uniform in
   each shard at 7 jobs, which make 4 one-floor shards, and mixed in
   shard 0 at 2 and 3), [boxed] returns an array on one lane that sits
   past shard 0 at every jobs count (shard 1 at 2 jobs, shard 2 at 3
   and 7), so shard 0 finishes typed and the join must re-box it, and
   [order] is impure: it records the order it is called in, which must
   stay the serial ascending order.  Each runs under an empty, a partial
   and the full mask; state, Metrics and the call order must match the
   tree-walker at every jobs count. *)
let typed_call_src =
  {|PROGRAM t
  PLURAL REAL a, b, c, d
  WHERE (iproc > 99999)
    a = within(iproc)
  ENDWHERE
  WHERE (iproc > 3)
    a = within(iproc)
    b = across(iproc)
    c = boxed(iproc)
    d = order(iproc)
  ENDWHERE
  a = within(iproc)
  b = across(iproc)
  d = order(iproc)
END
|}

let t_typed_calls_sharded () =
  let prog = Parser.program_of_string typed_call_src in
  let p = 4 * Pool.min_shard in
  let boxed_at = (3 * Pool.min_shard) - 100 in
  List.iter
    (fun jobs ->
      let rs = Pool.ranges ~p ~jobs in
      checkb
        (Fmt.str "boxed lane past shard 0 at jobs=%d" jobs)
        (Array.length rs > 1 && fst rs.(1) < boxed_at))
    [ 2; 3; 7 ];
  let calls = ref [] in
  let setup vm =
    let num n = if n <= 2 then Values.VInt n else Values.VReal (float n) in
    let arg = function [ Values.VInt n ] -> n | _ -> 0 in
    Vm.register_func vm ~pure:true "within" (fun a -> num (arg a));
    Vm.register_func vm ~pure:true "across" (fun a ->
        let n = arg a in
        if n <= Pool.min_shard then Values.VInt n else Values.VReal (float n));
    Vm.register_func vm ~pure:true "boxed" (fun a ->
        let n = arg a in
        if n = boxed_at then Values.VArr (Values.AInt (Nd.of_array [| n |]))
        else Values.VReal (float n));
    Vm.register_func vm "order" (fun a ->
        calls := arg a :: !calls;
        Values.VReal 1.0)
  in
  let run ?jobs ?opt engine =
    calls := [];
    let vm = Vm.run ?jobs ?opt ~engine ~p ~setup prog in
    (vm, !calls)
  in
  let tree, tree_calls = run `Tree_walk in
  List.iter
    (fun opt ->
      List.iter
        (fun (what, engine, jobs) ->
          let vm, calls = run ?jobs ~opt engine in
          let what = Fmt.str "%s -O%d" what opt in
          checkb (what ^ " state") (Vm.state_equal tree vm);
          checkb (what ^ " metrics")
            (Lf_simd.Metrics.equal tree.Vm.metrics vm.Vm.metrics);
          checkb (what ^ " impure call order") (calls = tree_calls))
        [
          ("compiled", `Compiled, None);
          ("parallel j2", `Parallel, Some 2);
          ("parallel j3", `Parallel, Some 3);
          ("parallel j7", `Parallel, Some 7);
        ])
    [ 0; 1; 2 ]

(* empty-mask reductions at multi-chunk widths: some shards (and some
   chunks inside a shard) have no active lane, so their partials are
   absent and must not perturb the merge.  At 16 floors each jobs count
   gets that many shards, and only the last one has active lanes. *)
let t_empty_partials () =
  let p = 16 * Pool.min_shard in
  let lo = p - 124 in
  let src =
    Printf.sprintf
      {|
  r = iproc * 0.125
  WHERE (iproc >= %d)
    s = sum(r)
    m = maxval(r)
    c = count(iproc > 0)
    t = any(iproc > %d)
    a = all(iproc >= %d)
  ENDWHERE
  WHERE (iproc > %d)
    z = sum(r)
  ENDWHERE
|}
      lo (p - 24) lo (10 * p)
  in
  let prog = Ast.program "t" (parse_block src) in
  let run ?jobs engine = Vm.run ~engine ?jobs ~p prog in
  let tree = run `Tree_walk in
  List.iter
    (fun (what, vm) ->
      checkb (what ^ " state") (Vm.state_equal tree vm);
      checkb (what ^ " metrics")
        (Lf_simd.Metrics.equal tree.Vm.metrics vm.Vm.metrics))
    [
      ("compiled", run `Compiled);
      ("parallel j2", run ~jobs:2 `Parallel);
      ("parallel j7", run ~jobs:7 `Parallel);
      ("parallel j16", run ~jobs:16 `Parallel);
    ];
  (* the fully-empty reduction yields the identity on every engine *)
  match Vm.find tree "z" with
  | Vm.VScalar { contents = Values.VReal z } -> checkb "empty sum" (z = 0.0)
  | _ -> Alcotest.fail "z shape"

(* Vm.run rejects invalid jobs *)
let t_vm_jobs_validation () =
  let prog = Ast.program "t" (parse_block "u = iproc") in
  match Vm.run ~engine:`Parallel ~jobs:0 ~p:4 prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 must be rejected"

let suite =
  [
    case "ranges: edge cases" t_ranges_edges;
    t_ranges_invariants;
    case "jobs=1 degenerates to serial" t_degenerate_serial;
    case "pool dispatch covers every lane once" t_pool_dispatch_covers;
    case "lowest shard's exception wins" t_exception_ordering;
    case "first failing lane reported at any jobs" t_first_failing_lane;
    case "region errors: first failing instruction wins" t_region_error_order;
    case "long regions: cap, scalar cells, global arrays" t_long_regions;
    case "typed plural calls across shards" t_typed_calls_sharded;
    case "empty per-shard reduction partials" t_empty_partials;
    case "Vm.run validates jobs" t_vm_jobs_validation;
  ]
