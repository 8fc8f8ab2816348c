(** Column-major n-dimensional arrays with Fortran-style 1-based indexing.

    Used as the storage for array values in the interpreters.  Indexing is
    1-based and column-major (first index varies fastest), matching the
    Fortran memory model the paper's layout discussion (Section 5.2)
    depends on. *)

type 'a t = {
  dims : int array;
  data : 'a array;
}

let size_of_dims dims = Array.fold_left ( * ) 1 dims

let create dims fill =
  if Array.exists (fun d -> d < 0) dims then
    Errors.runtime_error "negative array dimension";
  { dims; data = Array.make (size_of_dims dims) fill }

let init dims f =
  let n = size_of_dims dims in
  if n = 0 then { dims; data = [||] }
  else begin
    let rank = Array.length dims in
    let idx = Array.make rank 1 in
    let next () =
      let rec bump k =
        if k < rank then
          if idx.(k) < dims.(k) then idx.(k) <- idx.(k) + 1
          else begin
            idx.(k) <- 1;
            bump (k + 1)
          end
      in
      bump 0
    in
    let data =
      Array.init n (fun i ->
          let v = f (Array.copy idx) in
          if i < n - 1 then next ();
          v)
    in
    { dims; data }
  end

let of_array data = { dims = [| Array.length data |]; data = Array.copy data }

let rank a = Array.length a.dims
let dims a = Array.copy a.dims
let size a = Array.length a.data

let index_error j dn k =
  Errors.runtime_error "index %d out of bounds 1..%d in dimension %d" j dn k

let linear_index a idx =
  let rank = Array.length a.dims in
  if Array.length idx <> rank then
    Errors.runtime_error "rank mismatch: %d indices for rank-%d array"
      (Array.length idx) rank;
  let off = ref 0 and stride = ref 1 in
  for k = 0 to rank - 1 do
    let i = idx.(k) in
    if i < 1 || i > a.dims.(k) then index_error i a.dims.(k) (k + 1);
    off := !off + ((i - 1) * !stride);
    stride := !stride * a.dims.(k)
  done;
  !off

let get a idx = a.data.(linear_index a idx)
let set a idx v = a.data.(linear_index a idx) <- v

(** Flat (column-major) access, 0-based; used by the SIMD layouts. *)
let get_flat a i = a.data.(i)
let set_flat a i v = a.data.(i) <- v

let fill a v = Array.fill a.data 0 (Array.length a.data) v
let copy a = { dims = Array.copy a.dims; data = Array.copy a.data }
let map f a = { dims = Array.copy a.dims; data = Array.map f a.data }

let map2 f a b =
  if a.dims <> b.dims then Errors.runtime_error "shape mismatch in map2";
  { dims = Array.copy a.dims; data = Array.map2 f a.data b.data }

let fold f acc a = Array.fold_left f acc a.data
let iter f a = Array.iter f a.data
let iteri_flat f a = Array.iteri f a.data
let exists f a = Array.exists f a.data
let for_all f a = Array.for_all f a.data
let to_array a = Array.copy a.data

let equal eq a b =
  a.dims = b.dims
  && Array.for_all2 eq a.data b.data

(** [slice a spec] where each [spec] element is [`One i] (drops the
    dimension) or [`Range (lo, hi)] (keeps it).  Returns a fresh array. *)
let slice a spec =
  let rank = Array.length a.dims in
  if List.length spec <> rank then
    Errors.runtime_error "rank mismatch in slice";
  let spec = Array.of_list spec in
  let out_dims =
    Array.to_list spec
    |> List.filter_map (function
         | `One _ -> None
         | `Range (lo, hi) -> Some (max 0 (hi - lo + 1)))
    |> Array.of_list
  in
  let out_dims = if Array.length out_dims = 0 then [| 1 |] else out_dims in
  init out_dims (fun out_idx ->
      let k = ref 0 in
      let idx =
        Array.map
          (function
            | `One i -> i
            | `Range (lo, _) ->
                let v = lo + out_idx.(!k) - 1 in
                incr k;
                v)
          spec
      in
      get a idx)

(** Assign [src] (a fresh array of matching selected shape, or a broadcast
    via [`Scalar]) into the selected region of [a]. *)
let blit_slice a spec src =
  let spec = Array.of_list spec in
  let sel_dims =
    Array.to_list spec
    |> List.filter_map (function
         | `One _ -> None
         | `Range (lo, hi) -> Some (max 0 (hi - lo + 1)))
    |> Array.of_list
  in
  let n = size_of_dims sel_dims in
  (match src with
  | `Array s when size s <> n ->
      Errors.runtime_error "shape mismatch in section assignment: %d vs %d"
        (size s) n
  | _ -> ());
  let rank = Array.length sel_dims in
  let out_idx = Array.make rank 1 in
  for flat = 0 to n - 1 do
    let k = ref 0 in
    let idx =
      Array.map
        (function
          | `One i -> i
          | `Range (lo, _) ->
              let v = lo + out_idx.(!k) - 1 in
              incr k;
              v)
        spec
    in
    (match src with
    | `Scalar v -> set a idx v
    | `Array s -> set a idx (get_flat s flat));
    let rec bump k =
      if k < rank then
        if out_idx.(k) < sel_dims.(k) then out_idx.(k) <- out_idx.(k) + 1
        else begin
          out_idx.(k) <- 1;
          bump (k + 1)
        end
    in
    bump 0
  done
