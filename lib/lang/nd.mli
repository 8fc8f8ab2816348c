(** Column-major n-dimensional arrays with Fortran-style 1-based indexing
    (first index varies fastest — the memory model behind the paper's
    layout discussion, §5.2). *)

type 'a t = {
  dims : int array;
  data : 'a array;
}

val create : int array -> 'a -> 'a t

(** [init dims f] calls [f] with each 1-based index vector, first index
    fastest. *)
val init : int array -> (int array -> 'a) -> 'a t

val of_array : 'a array -> 'a t
val rank : 'a t -> int
val dims : 'a t -> int array
val size : 'a t -> int

(** 1-based multi-index access; raises [Errors.Runtime_error] on bounds or
    rank violations. *)
val get : 'a t -> int array -> 'a

val set : 'a t -> int array -> 'a -> unit

(** The flat offset [get] and [set] use for a 1-based multi-index, with
    the same rank and bounds errors: a caller that knows the element
    type reads [data] at it without boxing a float. *)
val linear_index : 'a t -> int array -> int

(** [index_error j dn k] raises the out-of-bounds error for index [j] in
    dimension [k] (1-based) of extent [dn]: the one message every engine
    reports for a subscript outside [1..dn]. *)
val index_error : int -> int -> int -> 'a

(** Flat column-major access, 0-based. *)
val get_flat : 'a t -> int -> 'a

val set_flat : 'a t -> int -> 'a -> unit
val fill : 'a t -> 'a -> unit
val copy : 'a t -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t

(** Raises on shape mismatch. *)
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val iter : ('a -> unit) -> 'a t -> unit
val iteri_flat : (int -> 'a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

(** [slice a spec]: [`One i] drops the dimension, [`Range (lo, hi)] keeps
    it.  Fresh result. *)
val slice : 'a t -> [ `One of int | `Range of int * int ] list -> 'a t

(** Assign a scalar broadcast or a matching-size source into the selected
    region. *)
val blit_slice :
  'a t ->
  [ `One of int | `Range of int * int ] list ->
  [ `Array of 'a t | `Scalar of 'a ] ->
  unit
