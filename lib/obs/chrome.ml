(** Chrome trace-event export: one track (tid) per SIMD lane, one slice
    per maximal run of consecutive vector steps in which the lane stayed
    active on the same source line.  The resulting JSON file loads
    directly into Perfetto / chrome://tracing; the time unit is one
    vector step (reported as microseconds, which the viewers require).

    The builder is streaming — it holds one open interval per lane, so
    memory is O(p) plus the rendered output, and it coalesces adjacent
    steps instead of emitting steps * p individual events. *)

open Lf_lang

type interval = {
  i_line : int;
  i_kind : Trace.kind;
  i_start : int;  (** first step of the run *)
  mutable i_end : int;  (** last step of the run, inclusive *)
}

type t = {
  p : int;
  open_ : interval option array;  (** per-lane open run *)
  buf : Buffer.t;
  mutable count : int;
  mutable steps : int;
}

let create ~p =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  { p; open_ = Array.make p None; buf; count = 0; steps = 0 }

let flush_interval t ~lane (iv : interval) =
  if t.count > 0 then Buffer.add_char t.buf ',';
  t.count <- t.count + 1;
  let name =
    if iv.i_line = 0 then Trace.kind_to_string iv.i_kind
    else Printf.sprintf "line %d" iv.i_line
  in
  Buffer.add_string t.buf
    (Json.to_string
       (Json.Obj
          [
            ("name", Json.Str name);
            ("cat", Json.Str (Trace.kind_to_string iv.i_kind));
            ("ph", Json.Str "X");
            ("ts", Json.Int iv.i_start);
            ("dur", Json.Int (iv.i_end - iv.i_start + 1));
            ("pid", Json.Int 0);
            ("tid", Json.Int lane);
            ("args", Json.Obj [ ("line", Json.Int iv.i_line) ]);
          ]))

let record t (ev : Trace.event) =
  if Trace.is_step ev then begin
    t.steps <- t.steps + 1;
    let line = ev.Trace.loc.Errors.line in
    let mask = ev.Trace.mask in
    let lanes = min t.p (Array.length mask) in
    for lane = 0 to lanes - 1 do
      let active = mask.(lane) in
      match t.open_.(lane) with
      | Some iv
        when active && iv.i_line = line && iv.i_kind = ev.Trace.kind
             && iv.i_end = ev.Trace.step - 1 ->
          iv.i_end <- ev.Trace.step
      | Some iv ->
          flush_interval t ~lane iv;
          t.open_.(lane) <-
            (if active then
               Some
                 {
                   i_line = line;
                   i_kind = ev.Trace.kind;
                   i_start = ev.Trace.step;
                   i_end = ev.Trace.step;
                 }
             else None)
      | None ->
          if active then
            t.open_.(lane) <-
              Some
                {
                  i_line = line;
                  i_kind = ev.Trace.kind;
                  i_start = ev.Trace.step;
                  i_end = ev.Trace.step;
                }
    done
  end

let sink t : Trace.sink = record t

(** Close all open intervals and return the complete JSON document. *)
let contents t =
  Array.iteri
    (fun lane iv ->
      match iv with
      | Some iv ->
          flush_interval t ~lane iv;
          t.open_.(lane) <- None
      | None -> ())
    t.open_;
  Buffer.contents t.buf ^ "]}"
