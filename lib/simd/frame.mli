(** Execution frame of the compiled SIMD engine: variables resolved to
    dense integer slots, plural scalars stored unboxed ([int array] /
    [float array] / [bool array]) with a boxed fallback for mixed-type
    lanes, and reusable activity masks with a cached active count.

    The lane vectors ([lanes]) are the plural-scalar storage of the
    frame, of the [Vm] variable table and of [Pval] plurals, so moving
    state between a frame and the VM copies lane vectors.  Conversions
    to and from boxed [Values.value array]s are value-preserving in both
    directions. *)

open Lf_lang

type lanes =
  | LInt of int array
  | LReal of float array
  | LBool of bool array
  | LBox of Values.value array  (** mixed-type fallback *)

type slot =
  | Unbound
  | Scalar of Values.value ref
  | Plural of lanes
  | Global of Values.arr
  | PluralArr of Values.arr

type t = {
  p : int;
  names : string array;
  slots : slot array;
  index : (string, int) Hashtbl.t;
  mutable scr_i : int array array;
  mutable scr_r : float array array;
  mutable scr_b : bool array array;
}

val create : p:int -> string list -> t

(** Reset every slot to [Unbound] while keeping the name table and the
    lazily-grown scratch pools, so a cached frame can be reused across
    warm runs without reallocating.  Stale scratch contents are safe by
    the engine's documented relaxation (inactive computed-temporary lanes
    may hold garbage until rewritten). *)
val reset : t -> unit

val slot_index : t -> string -> int option
val name_of : t -> int -> string
val n_slots : t -> int
val get : t -> int -> slot
val set : t -> int -> slot -> unit

(** Scratch lane vectors, shared between operator sites whose result
    buffers [Opt.plan_scratch] proved never simultaneously live (sites
    carry their group in [Ir.x_scr]).  Allocated on first demand, one
    vector per (group, element type), reused for the frame's lifetime:
    steady-state vector-op execution allocates nothing.  Sharing is safe
    because every consumer of an operator result either folds it or
    copies it before the next site of the same group runs. *)

val scr_int : t -> int -> int array

val scr_real : t -> int -> float array
val scr_bool : t -> int -> bool array

(** Unbox a boxed lane vector when type-uniform; retains (does not copy)
    the boxed array otherwise. *)
val lanes_of_values : Values.value array -> lanes

(** Boxed view of a lane vector (fresh array). *)
val values_of_lanes : lanes -> Values.value array

(** A private copy. *)
val copy_lanes : lanes -> lanes

(** [make_lanes p v]: [p] lanes holding [v], unboxed for a scalar. *)
val make_lanes : int -> Values.value -> lanes

val lanes_length : lanes -> int

(** Boxed view of one lane. *)
val lane_value : lanes -> int -> Values.value

module Mask : sig
  type t = {
    bits : Bytes.t;
    mutable active_n : int;
  }

  val create_full : int -> t
  val create_empty : int -> t
  val length : t -> int

  (** Cached population count: O(1). *)
  val active : t -> int

  val get : t -> int -> bool
  val clear : t -> unit
  val to_bool_array : t -> bool array
  val of_bool_array : bool array -> t
end
