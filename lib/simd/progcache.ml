(** One-program cache of a compiled program's front end (see
    progcache.mli): the entry and the key it was built under. *)

open Lf_lang
module Stats = Lf_obs.Stats

type entry = {
  e_prog : Ast.program;
  e_ast_names : string list;
  mutable e_lowered : (string list * Ir.block) option;
  mutable e_front_ns : int64;
  mutable e_frames : Frame.t list;
}

type key = {
  k_md5 : Digest.t;  (** [Digest.string] of the source bytes *)
  k_opt : int;
  k_verify : bool;
  k_p : int;
}

type t = { mutable slot : (key * entry) option }

let st_hits = Stats.counter ~section:Stats.Opt "cache.hits"
let st_misses = Stats.counter ~section:Stats.Opt "cache.misses"
let st_warm_saved = Stats.timer "cache.warm_saved_ns"

let key ~md5 ~opt ~verify ~p =
  { k_md5 = md5; k_opt = opt; k_verify = verify; k_p = p }

let create () = { slot = None }

let find c k =
  match c.slot with
  | Some (k', e) when k' = k ->
      Stats.incr st_hits;
      Some e
  | _ ->
      Stats.incr st_misses;
      None

let insert c k ~front_ns prog =
  let e =
    {
      e_prog = prog;
      e_ast_names = Compile.var_names prog;
      e_lowered = None;
      e_front_ns = front_ns;
      e_frames = [];
    }
  in
  c.slot <- Some (k, e);
  e

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
