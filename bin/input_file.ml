(* Reading the files the command-line tools take as input ("-" is stdin).
   An unreadable path -- missing, a directory, no permission -- ends in
   one line, "<tool>: <path>: <reason>", never in an uncaught Sys_error. *)

(** The whole contents of [path], or the reason it cannot be read. *)
let read path =
  match
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_bin path In_channel.input_all
  with
  | text -> Ok text
  | exception Sys_error msg ->
      (* open's messages already start with the path; reads' do not *)
      let prefix = path ^ ": " in
      Error
        (if String.starts_with ~prefix msg then
           String.sub msg (String.length prefix)
             (String.length msg - String.length prefix)
         else msg)

(** [read], or report the failure and exit 124: the exit code cmdliner
    gives a command-line error, as for simdbatch's work list. *)
let read_or_exit ~tool path =
  match read path with
  | Ok text -> text
  | Error reason ->
      Printf.eprintf "%s: %s: %s\n%!" tool path reason;
      exit 124
