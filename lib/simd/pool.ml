(** Lane-sharded execution: a persistent Domain pool and the [exec]
    record threaded through the compiled engine.

    The parallel engine keeps the paper's machine model intact: one
    control unit (the caller's domain) issues every vector instruction,
    accounts [Metrics], burns fuel and emits trace events; only the
    per-lane loops fan out, with the [p] lanes partitioned into
    contiguous shards — a CM-2 sequencer broadcasting to banks of
    independent PEs.

    {b Join regions.}  After flattening, lanes only meet at cross-lane
    joins: a reduction or [ANY]/[ALL], a mask split whose active counts
    the control unit needs, a scalar read of plural data, a serial
    store run, a [CALL], the end of the run.  Everything between two
    joins is independent per-lane work, so a pool-backed [x_run f] does
    not dispatch: it appends [f] to the current region.  The compiled
    engine calls [sync] at every join; the region is then flushed in
    {e one} dispatch in which each shard runs every pending entry, in
    issue order, over its own lanes.  Shards only touch their own lanes
    of lane vectors and masks, so per-shard program order is the only
    order entries need.  Entries may read global arrays at other lanes'
    elements, but never write them: every store into global storage is
    a serial run on the control thread after a join, so no read inside
    a region can race a write.

    {b Errors.}  Each shard stops at its first failing entry and records
    it.  After the join the error of the lowest (entry, shard) pair is
    raised: the lowest entry is the first failing instruction, and the
    lowest shard of it holds its first failing lane — the error the
    serial engines raise.  A [Runtime_error] is located at the innermost
    located statement that was executing when its entry was issued
    ([set_issue_loc]).  An exception of the control unit itself (a fuel
    fault, a front-end error) flushes the region first ([settle]), so a
    pending lane error, which comes earlier in program order, wins.

    {b Shard partition.}  Shards are contiguous, at most [jobs] of them,
    and none is narrower than [min_shard] (512 lanes), so below
    [2 * min_shard] lanes a parallel executor has one shard and runs
    inline, exactly as the serial engine does.  The floor is measured:
    every flush costs the control unit a hand-off and a join, and only
    from 1024 lanes on does a second domain's share of the lane work
    pay for them (see [min_shard]).  The batch scheduler reads the same
    partition to tell which items shard ([Batch]), so an item below the
    floor neither waits for the batch to drain nor stops other items.

    Shard boundaries are aligned to the reduction [chunk] (64 lanes), so
    every shard folds whole chunks.  Reductions compute one partial per
    {e chunk} (not per shard) and merge the partials left-to-right in
    ascending chunk order; because the chunk grid is independent of
    [jobs], a float SUM is bitwise identical at any jobs count, and the
    serial compiled engine (which folds the same grid with one shard) and
    the tree-walker (see [Pval.reduce]) agree bit-for-bit.

    {b Hand-off.}  A flush posts its participant closure to
    [min (nshards - 1) spare_cores] workers and drains shards itself;
    every participant pulls shard indices from the executor's atomic
    counter, so whichever domains actually run, each shard runs exactly
    once.  A worker spins on its atomic job slot for [spin_limit] polls
    before it blocks on its [Mutex]/[Condition]; the control domain
    spins the same bound on the join's completion counter before it
    blocks.  With no spare core there are no helpers: a flush runs the
    shards inline in order, with no lock, no atomic and no spinning.  A
    one-shard partition (below the floor, or [jobs = 1]) never reaches
    the pool: its executor is [serial_exec]'s, with no region. *)

open Lf_lang

(* ------------------------------------------------------------------ *)
(* Pool-health telemetry                                               *)
(* ------------------------------------------------------------------ *)

(* Pool metrics live in the [Volatile] section.  [pool.dispatches]
   counts region flushes, a function of the program alone; it stays
   Volatile because the serial engines never dispatch, and Counters must
   be identical across engines.  Which participant drains a shard — and
   how long it stays busy — depends on the OS scheduler.  The sharded
   accumulators give every participant a private cell (cell 0 = the
   control domain, cells 1.. = pool workers, bounded by [max_jobs] <
   [Stats.max_cells]); the join orders the workers' plain writes before
   the control thread's merge. *)
module Stats = Lf_obs.Stats

let st_dispatches = Stats.counter ~section:Stats.Volatile "pool.dispatches"

let st_reentrant =
  Stats.counter ~section:Stats.Volatile "pool.reentrant_dispatches"

let st_shards_drained = Stats.sharded "pool.shards_drained"
let st_busy_ns = Stats.sharded "pool.busy_ns"
let st_imbalance = Stats.gauge "pool.shard_imbalance"

(* ------------------------------------------------------------------ *)
(* Chunked lane partitioning                                           *)
(* ------------------------------------------------------------------ *)

let chunk = Lf_lang.Scalar_ops.chunk
let nchunks p = (p + chunk - 1) / chunk

(* The narrowest shard, in lanes: 8 chunks.  Below it a second domain
   costs more than it saves — the join regions' hand-offs outweigh the
   lane work they split.  Measured with [bench --paired jobs] (release
   build, 15 rounds, NBFORCE flattened, 2 jobs against the serial
   compiled engine) with 64-lane shards, i.e. two shards at every width,
   four runs: the ratio is 1.16 or more at p = 128 and 256, 0.96-1.16
   with an interquartile range that holds 1 at p = 512, and 0.92 or
   less from p = 1024 on (EXPERIMENTS.md "Shard-width floor").  A floor
   of 512 keeps every width that gains and runs the others serial. *)
let min_shard = 8 * chunk

(** Partition [0, p) into at most [jobs] contiguous, chunk-aligned,
    non-empty shards of at least [min_shard] lanes each: [min jobs
    (p / min_shard)] of them, or the single shard [(0, p)] when that is
    below 2.  Ascending, disjoint, covering. *)
let ranges ~p ~jobs =
  if jobs < 1 then invalid_arg "Pool.ranges: jobs must be >= 1";
  let n = min jobs (p / min_shard) in
  if n <= 1 then [| (0, p) |]
  else
    (* [n <= p / min_shard] gives every shard but the last at least
       [min_shard / chunk] whole chunks, and the last, which takes the
       ragged chunk, one chunk more unless [p = n * min_shard] *)
    let nc = nchunks p in
    Array.init n (fun k ->
        let lo_c = k * nc / n and hi_c = (k + 1) * nc / n in
        (lo_c * chunk, min p (hi_c * chunk)))

(* ------------------------------------------------------------------ *)
(* Persistent worker pool                                              *)
(* ------------------------------------------------------------------ *)

(* Polls of an atomic before a waiting domain blocks: long enough to
   bridge the control unit's issue work between two joins, short enough
   that an idle worker soon stops burning its core. *)
let spin_limit = 20_000

type worker = {
  w_seq : int Atomic.t;  (** bumped once per posted task *)
  mutable w_task : int -> unit;  (** written before [w_seq] is bumped *)
  mutable w_quit : bool;
  w_pid : int;  (** telemetry cell: 1-based worker index *)
  w_sleeping : bool Atomic.t;  (** blocked on [w_cv] (set under [w_mu]) *)
  w_mu : Mutex.t;
  w_cv : Condition.t;
  mutable w_dom : unit Domain.t option;  (** filled right after spawn *)
}

type pool = {
  p_mu : Mutex.t;  (** guards [p_workers] growth *)
  mutable p_workers : worker array;  (** only ever grows *)
  p_busy : bool Atomic.t;  (** a pooled flush is in flight *)
}

let the_pool =
  { p_mu = Mutex.create (); p_workers = [||]; p_busy = Atomic.make false }

let worker_loop (w : worker) =
  let seen = ref 0 in
  while not w.w_quit do
    let spins = ref spin_limit in
    while Atomic.get w.w_seq = !seen && !spins > 0 do
      Domain.cpu_relax ();
      decr spins
    done;
    if Atomic.get w.w_seq = !seen then begin
      (* [w_sleeping] is raised before the re-check, under the mutex the
         poster takes to signal, so a post cannot slip in unnoticed *)
      Mutex.lock w.w_mu;
      Atomic.set w.w_sleeping true;
      while Atomic.get w.w_seq = !seen do
        Condition.wait w.w_cv w.w_mu
      done;
      Atomic.set w.w_sleeping false;
      Mutex.unlock w.w_mu
    end;
    seen := Atomic.get w.w_seq;
    (* the task traps its own shard errors; a leak here must never kill
       the worker *)
    if not w.w_quit then try w.w_task w.w_pid with _ -> ()
  done

let wake (w : worker) =
  if Atomic.get w.w_sleeping then begin
    Mutex.lock w.w_mu;
    Condition.signal w.w_cv;
    Mutex.unlock w.w_mu
  end

let post (w : worker) task =
  w.w_task <- task;
  Atomic.incr w.w_seq;
  wake w

let shutdown () =
  Mutex.lock the_pool.p_mu;
  let ws = the_pool.p_workers in
  the_pool.p_workers <- [||];
  Mutex.unlock the_pool.p_mu;
  Array.iter
    (fun w ->
      w.w_quit <- true;
      Atomic.incr w.w_seq;
      Mutex.lock w.w_mu;
      Condition.signal w.w_cv;
      Mutex.unlock w.w_mu)
    ws;
  Array.iter (fun w -> Option.iter Domain.join w.w_dom) ws

let at_exit_registered = ref false

(* Helpers beyond the host's spare cores cannot run concurrently anyway;
   waking them only buys scheduler round trips (and every awake domain
   must be rendezvoused by each stop-the-world minor GC).  Shards are
   decoupled from workers by the stealing counter, so
   [min (nshards - 1) (cores - 1)] helpers suffice for any partition —
   on a single-core host that is zero, and a flush runs inline. *)
let spare_cores = lazy (max 0 (Domain.recommended_domain_count () - 1))

(** Grow the pool to at least [n] workers (idempotent). *)
let ensure_workers n =
  Mutex.lock the_pool.p_mu;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    Stdlib.at_exit shutdown
  end;
  let have = Array.length the_pool.p_workers in
  if n > have then begin
    let fresh =
      Array.init (n - have) (fun k ->
          {
            w_seq = Atomic.make 0;
            w_task = ignore;
            w_quit = false;
            w_pid = have + k + 1;
            w_sleeping = Atomic.make false;
            w_mu = Mutex.create ();
            w_cv = Condition.create ();
            w_dom = None;
          })
    in
    Array.iter
      (fun w -> w.w_dom <- Some (Domain.spawn (fun () -> worker_loop w)))
      fresh;
    the_pool.p_workers <- Array.append the_pool.p_workers fresh
  end;
  Mutex.unlock the_pool.p_mu

(* ------------------------------------------------------------------ *)
(* Join regions                                                        *)
(* ------------------------------------------------------------------ *)

type entry = int -> int -> int -> unit

(* Pending entries per region before the engine is made to join anyway:
   bounds the region's memory and how far the control unit can run
   ahead of a failing lane. *)
let max_pending = 512

type region = {
  r_ranges : (int * int) array;
  r_helpers : int;  (** workers posted per flush; 0 = inline *)
  mutable r_fs : entry array;  (** pending entries, issue order *)
  mutable r_locs : Errors.pos option array;  (** each entry's statement *)
  mutable r_n : int;
  mutable r_loc : Errors.pos option;  (** innermost located statement *)
  r_err_at : int array;  (** per shard: first failing entry, or max_int *)
  r_err : exn array;
  r_next : int Atomic.t;  (** next unclaimed shard of this flush *)
  r_done : int Atomic.t;  (** shards completed in this flush *)
  r_waiting : bool Atomic.t;  (** control blocked on [r_cv] *)
  r_mu : Mutex.t;
  r_cv : Condition.t;
  mutable r_task : int -> unit;  (** the participant body workers run *)
}

(** A lane error issued outside every located statement: carried past
    the located statements around the join that raised it (which would
    otherwise claim it), unwrapped by [settle]. *)
exception Lane_error of exn

let idle_entry : entry = fun _ _ _ -> ()

let run_shard rg k =
  let lo, hi = rg.r_ranges.(k) in
  let fs = rg.r_fs and n = rg.r_n in
  let e = ref 0 in
  try
    while !e < n do
      (Array.unsafe_get fs !e) k lo hi;
      incr e
    done
  with x ->
    rg.r_err_at.(k) <- !e;
    rg.r_err.(k) <- x

(* One participant of a pooled flush ([pid] = telemetry cell).  A
   participant that arrives late — after its flush, even during a later
   one — only claims shards of whichever flush is current, all of whose
   entries were published before [r_next] was reset. *)
let participate rg pid =
  let ns = Array.length rg.r_ranges in
  let stats_on = Stats.enabled () in
  let t0 = if stats_on then Stats.now_ns () else 0L in
  let mine = ref 0 in
  let k = ref (Atomic.fetch_and_add rg.r_next 1) in
  while !k < ns do
    run_shard rg !k;
    incr mine;
    (* the last shard wakes the control domain if it gave up spinning *)
    if Atomic.fetch_and_add rg.r_done 1 = ns - 1 && Atomic.get rg.r_waiting
    then begin
      Mutex.lock rg.r_mu;
      Condition.signal rg.r_cv;
      Mutex.unlock rg.r_mu
    end;
    k := Atomic.fetch_and_add rg.r_next 1
  done;
  if stats_on && !mine > 0 then begin
    Stats.cell_add st_shards_drained ~cell:pid !mine;
    Stats.cell_add st_busy_ns ~cell:pid
      (Int64.to_int (Int64.sub (Stats.now_ns ()) t0))
  end

let flush_inline rg =
  let stats_on = Stats.enabled () in
  let t0 = if stats_on then Stats.now_ns () else 0L in
  let ns = Array.length rg.r_ranges in
  for k = 0 to ns - 1 do
    run_shard rg k
  done;
  if stats_on then begin
    Stats.cell_add st_shards_drained ~cell:0 ns;
    Stats.cell_add st_busy_ns ~cell:0
      (Int64.to_int (Int64.sub (Stats.now_ns ()) t0))
  end

let flush_pooled rg =
  let ns = Array.length rg.r_ranges in
  Atomic.set rg.r_done 0;
  (* publishes the region: everything written above is visible to a
     participant that claims a shard *)
  Atomic.set rg.r_next 0;
  let ws = the_pool.p_workers in
  for i = 0 to rg.r_helpers - 1 do
    post ws.(i) rg.r_task
  done;
  participate rg 0;
  let spins = ref spin_limit in
  while Atomic.get rg.r_done < ns && !spins > 0 do
    Domain.cpu_relax ();
    decr spins
  done;
  if Atomic.get rg.r_done < ns then begin
    Mutex.lock rg.r_mu;
    Atomic.set rg.r_waiting true;
    while Atomic.get rg.r_done < ns do
      Condition.wait rg.r_cv rg.r_mu
    done;
    Atomic.set rg.r_waiting false;
    Mutex.unlock rg.r_mu
  end

let located loc x =
  match (x, loc) with
  | Errors.Runtime_error msg, Some l -> Errors.Runtime_error_at (l, msg)
  | Errors.Runtime_error _, None -> Lane_error x
  | x, _ -> x

(** Run every pending entry on every shard, one dispatch, then raise the
    first failing (entry, shard)'s error, if any. *)
let flush rg =
  let n = rg.r_n in
  if n > 0 then begin
    Stats.incr st_dispatches;
    let ns = Array.length rg.r_ranges in
    Array.fill rg.r_err_at 0 ns max_int;
    if rg.r_helpers = 0 then flush_inline rg
    else if Atomic.compare_and_set the_pool.p_busy false true then begin
      flush_pooled rg;
      Atomic.set the_pool.p_busy false
    end
    else begin
      (* re-entrant use (a lane callback running a VM of its own) or a
         concurrent engine: the pool is taken, so run inline *)
      Stats.incr st_reentrant;
      flush_inline rg
    end;
    let best = ref (-1) in
    for k = 0 to ns - 1 do
      let e = rg.r_err_at.(k) in
      if e < max_int && (!best < 0 || e < rg.r_err_at.(!best)) then best := k
    done;
    let failure =
      if !best < 0 then None
      else Some (located rg.r_locs.(rg.r_err_at.(!best)) rg.r_err.(!best))
    in
    Array.fill rg.r_fs 0 n idle_entry;
    Array.fill rg.r_locs 0 n None;
    Array.fill rg.r_err 0 ns Exit;
    rg.r_n <- 0;
    Option.iter raise failure
  end

(* A full region is flushed right after its last entry is appended. *)
let issue rg f =
  let n = rg.r_n in
  if n = Array.length rg.r_fs then begin
    let grow a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    rg.r_fs <- grow rg.r_fs idle_entry;
    rg.r_locs <- grow rg.r_locs None
  end;
  Array.unsafe_set rg.r_fs n f;
  Array.unsafe_set rg.r_locs n rg.r_loc;
  rg.r_n <- n + 1;
  if n + 1 >= max_pending then flush rg

(* ------------------------------------------------------------------ *)
(* The exec record                                                     *)
(* ------------------------------------------------------------------ *)

type exec = {
  x_p : int;  (** number of lanes *)
  x_shards : (int * int) array;
      (** the shard partition of [0, p); singleton for serial execution *)
  x_run : (int -> int -> int -> unit) -> unit;
      (** [x_run f] applies [f shard lo hi] to every shard: at once for
          an inline executor, at the next join for a pool-backed one *)
  x_rg : region option;  (** the pending join region, when pool-backed *)
}

let nshards e = Array.length e.x_shards

let serial_exec ~p =
  { x_p = p; x_shards = [| (0, p) |]; x_run = (fun f -> f 0 0 p); x_rg = None }

let sync e = match e.x_rg with None -> () | Some rg -> flush rg

let issue_loc e = match e.x_rg with None -> None | Some rg -> rg.r_loc

let set_issue_loc e loc =
  match e.x_rg with None -> () | Some rg -> rg.r_loc <- loc

let settle e body x =
  match e.x_rg with
  | None -> body x
  | Some rg -> (
      rg.r_loc <- None;
      try
        match body x with
        | () -> flush rg
        | exception x ->
            (* pending entries precede [x] in program order *)
            flush rg;
            raise x
      with Lane_error x -> raise x)

let max_jobs = 64

let parallel_exec ~p ~jobs =
  if jobs < 1 then invalid_arg "Pool.parallel_exec: jobs must be >= 1";
  let jobs = min jobs max_jobs in
  let rs = ranges ~p ~jobs in
  let ns = Array.length rs in
  if ns = 1 then
    (* jobs = 1, or too few lanes to split: the serial fast path *)
    { (serial_exec ~p) with x_shards = rs }
  else begin
    if Stats.enabled () && p > 0 then begin
      let mx =
        Array.fold_left (fun acc (lo, hi) -> max acc (hi - lo)) 0 rs
      in
      let mean = float_of_int p /. float_of_int ns in
      Stats.set_gauge st_imbalance (float_of_int mx /. mean)
    end;
    let helpers = min (ns - 1) (Lazy.force spare_cores) in
    if helpers > 0 then ensure_workers helpers;
    let rg =
      {
        r_ranges = rs;
        r_helpers = helpers;
        r_fs = Array.make 64 idle_entry;
        r_locs = Array.make 64 None;
        r_n = 0;
        r_loc = None;
        r_err_at = Array.make ns max_int;
        r_err = Array.make ns Exit;
        r_next = Atomic.make ns;
        r_done = Atomic.make 0;
        r_waiting = Atomic.make false;
        r_mu = Mutex.create ();
        r_cv = Condition.create ();
        r_task = ignore;
      }
    in
    rg.r_task <- participate rg;
    { x_p = p; x_shards = rs; x_run = issue rg; x_rg = Some rg }
  end

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))
