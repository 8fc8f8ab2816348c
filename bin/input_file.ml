(* Reading the files the command-line tools take as input ("-" is stdin),
   and writing the files they produce.  An unreadable or unwritable path
   -- missing, a directory, no permission -- ends in one line,
   "<tool>: <path>: <reason>", never in an uncaught Sys_error. *)

(* open's messages already start with the path; reads' and writes' do
   not *)
let reason path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  else msg

(** The whole contents of [path], or the reason it cannot be read. *)
let read path =
  match
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_bin path In_channel.input_all
  with
  | text -> Ok text
  | exception Sys_error msg -> Error (reason path msg)

(* Exit 124: the exit code cmdliner gives a command-line error, as for
   simdbatch's work list. *)
let fail ~tool path msg =
  Printf.eprintf "%s: %s: %s\n%!" tool path (reason path msg);
  exit 124

(** [read], or report the failure and exit 124. *)
let read_or_exit ~tool path =
  match read path with
  | Ok text -> text
  | Error reason -> fail ~tool path reason

(** [open_out path], or report the failure and exit 124. *)
let open_out_or_exit ~tool path =
  try open_out path with Sys_error msg -> fail ~tool path msg

(** Write [path] through [f], or report the failure (opening, writing
    or closing) and exit 124. *)
let write_or_exit ~tool path f =
  let oc = open_out_or_exit ~tool path in
  try
    f oc;
    close_out oc
  with Sys_error msg ->
    close_out_noerr oc;
    fail ~tool path msg
