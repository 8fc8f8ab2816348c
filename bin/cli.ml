(* Option values shared by simdsim and simdbatch. *)

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

(** [--atoms N] (default 96, at least 0). *)
let atoms ~doc =
  Arg.(
    value
    & opt (int_at_least ~name:"atoms" 0) 96
    & info [ "atoms" ] ~docv:"N" ~doc)
