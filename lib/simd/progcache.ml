(** Content-addressed compiled-program cache (see progcache.mli).

    The store is one hashtable keyed by the content tuple plus a logical
    clock for LRU: each touch stamps the entry with the next tick and
    eviction scans for the minimum stamp.  Scanning is O(entries) but
    eviction is rare and the entry bound is small (default 128), which
    keeps the implementation free of intrusive lists.  Nothing here
    locks: one domain at a time uses a cache (the batch driver gives
    each chain of items its own). *)

open Lf_lang
module Stats = Lf_obs.Stats

type entry = {
  e_prog : Ast.program;
  e_ast_names : string list;
  mutable e_lowered : (string list * Ir.block) option;
  mutable e_front_ns : int64;
  mutable e_frames : Frame.t list;
  e_bytes : int;
}

type key = {
  k_md5 : string;  (** [Digest.string] of the source bytes *)
  k_dialect : string;
  k_opt : int;
  k_verify : bool;
  k_p : int;
}

type slot = { s_entry : entry; mutable s_tick : int }

type t = {
  max_entries : int;
  max_bytes : int;
  tbl : (key, slot) Hashtbl.t;
  mutable clock : int;
  mutable cur_bytes : int;
}

(* -- telemetry ----------------------------------------------------- *)

let st_hits = Stats.counter ~section:Stats.Opt "cache.hits"
let st_misses = Stats.counter ~section:Stats.Opt "cache.misses"
let st_evictions = Stats.counter ~section:Stats.Opt "cache.evictions"
let st_bytes = Stats.gauge ~section:Stats.Opt "cache.bytes"
let st_warm_saved = Stats.timer "cache.warm_saved_ns"

(* ------------------------------------------------------------------ *)

(* Every change of a cache's byte total goes through here, so the
   [cache.bytes] gauge sums the totals of every cache in the process. *)
let charge c delta =
  c.cur_bytes <- c.cur_bytes + delta;
  Stats.add_gauge st_bytes (float_of_int delta)

let create ?(max_entries = 128) ?(max_bytes = 64 * 1024 * 1024) () =
  if max_entries < 1 then invalid_arg "Progcache.create: max_entries < 1";
  {
    max_entries;
    max_bytes;
    tbl = Hashtbl.create 64;
    clock = 0;
    cur_bytes = 0;
  }

let length c = Hashtbl.length c.tbl
let bytes c = c.cur_bytes

let key ~src ~dialect ~opt ~verify ~p =
  {
    k_md5 = Digest.string src;
    k_dialect = dialect;
    k_opt = opt;
    k_verify = verify;
    k_p = p;
  }

let touch c s =
  c.clock <- c.clock + 1;
  s.s_tick <- c.clock

let find c ~src ~dialect ~opt ~verify ~p =
  match Hashtbl.find_opt c.tbl (key ~src ~dialect ~opt ~verify ~p) with
  | Some s ->
      touch c s;
      Stats.incr st_hits;
      Some s.s_entry
  | None ->
      Stats.incr st_misses;
      None

let evict_lru c =
  let victim =
    Hashtbl.fold
      (fun k s acc ->
        match acc with
        | Some (_, best) when best.s_tick <= s.s_tick -> acc
        | _ -> Some (k, s))
      c.tbl None
  in
  match victim with
  | None -> ()
  | Some (k, s) ->
      Hashtbl.remove c.tbl k;
      charge c (-s.s_entry.e_bytes);
      Stats.incr st_evictions

(* Deterministic size estimate: the AST/IR/frame footprint scales with
   the source, so charge a fixed overhead plus a multiple of the source
   length.  Exact accounting is not worth a traversal — the budget only
   needs to rank entries consistently and cap growth. *)
let estimate_bytes src = 512 + (8 * String.length src)

let insert c ~src ~dialect ~opt ~verify ~p ~front_ns prog =
  let k = key ~src ~dialect ~opt ~verify ~p in
  (match Hashtbl.find_opt c.tbl k with
  | Some old ->
      Hashtbl.remove c.tbl k;
      charge c (-old.s_entry.e_bytes)
  | None -> ());
  let entry =
    {
      e_prog = prog;
      e_ast_names = Compile.var_names prog;
      e_lowered = None;
      e_front_ns = front_ns;
      e_frames = [];
      e_bytes = estimate_bytes src;
    }
  in
  (* Make room before inserting so the new entry is never its own
     victim; the byte budget can still be exceeded by one oversized
     entry, which beats refusing to cache it at all. *)
  while Hashtbl.length c.tbl >= c.max_entries do
    evict_lru c
  done;
  while Hashtbl.length c.tbl > 0 && c.cur_bytes + entry.e_bytes > c.max_bytes do
    evict_lru c
  done;
  let s = { s_entry = entry; s_tick = 0 } in
  touch c s;
  Hashtbl.replace c.tbl k s;
  charge c entry.e_bytes;
  entry

let add_front_ns e ns = e.e_front_ns <- Int64.add e.e_front_ns ns
let credit_warm e = Stats.add_span_ns st_warm_saved e.e_front_ns

(* A pooled frame is only reusable if its name table is exactly the
   requested layout — setup-seeded extras can differ between runs of the
   same source, and slot numbering is positional. *)
let layout_matches (f : Frame.t) ~p layout =
  f.Frame.p = p
  &&
  let n = Array.length f.Frame.names in
  let rec go i = function
    | [] -> i = n
    | x :: rest -> i < n && String.equal f.Frame.names.(i) x && go (i + 1) rest
  in
  go 0 layout

let take_frame e ~p layout =
  match e.e_frames with
  | f :: rest when layout_matches f ~p layout ->
      e.e_frames <- rest;
      Frame.reset f;
      f
  | _ -> Frame.create ~p layout

let release_frame e f = e.e_frames <- f :: e.e_frames
