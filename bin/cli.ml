(* Option values shared by flattenc, simdsim and simdbatch. *)

open Cmdliner

(** An integer option value of at least [min]: a smaller one is a usage
    error (exit 124) reading "[name] = N: must be >= [min]", the wording
    of simdbatch's work-list checks. *)
let int_at_least ~name min =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < min ->
        Error (`Msg (Fmt.str "%s = %d: must be >= %d" name n min))
    | r -> r
  in
  Arg.conv (parse, Fmt.int)

(** The [-O] level: 0, 1 or 2, anything else a usage error (exit 124).
    Level 2 is accepted and runs the [-O1] pipeline. *)
let olevel_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 && n <= 2 -> Ok n
    | Some n ->
        Error
          (`Msg (Fmt.str "invalid optimizer level %d: expected 0, 1 or 2" n))
    | None -> Error (`Msg (Fmt.str "invalid optimizer level %S" s))
  in
  Arg.conv (parse, Fmt.int)

(** [--atoms N] (default 96, at least 0). *)
let atoms ~doc =
  Arg.(
    value
    & opt (int_at_least ~name:"atoms" 0) 96
    & info [ "atoms" ] ~docv:"N" ~doc)
