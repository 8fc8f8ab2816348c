(** Shared helpers for the test suite. *)

open Lf_lang

(** The shared program generators now live in [lib/testgen] so the
    fuzzer ([lib/fuzz]) can drive them too; this alias keeps the
    suite's historical [Gen.*] references working unchanged. *)
module Gen = Lf_testgen.Gen

let check = Alcotest.check
let checkb msg b = Alcotest.check Alcotest.bool msg true b
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let case name f = Alcotest.test_case name `Quick f

let parse_block = Parser.block_of_string
let parse_expr = Parser.expr_of_string
let parse_program = Parser.program_of_string

(** The paper's EXAMPLE as a block (Figure 1). *)
let example_block () =
  parse_block
    {|
  DO i = 1, k
    DO j = 1, l(i)
      x(i,j) = i * j
    ENDDO
  ENDDO
|}

(** The paper's data: K = 8, L = 4,1,2,1,1,3,1,3. *)
let paper_l = [| 4; 1; 2; 1; 1; 3; 1; 3 |]

let example_setup ?(k = 8) ?(l = paper_l) ctx =
  let maxl = Array.fold_left max 1 l in
  Env.set ctx.Interp.env "k" (Values.VInt k);
  Env.set ctx.Interp.env "l" (Values.VArr (Values.AInt (Nd.of_array l)));
  Env.set ctx.Interp.env "x"
    (Values.VArr (Values.AInt (Nd.create [| Array.length l; maxl |] 0)))

let get_x ctx =
  match Env.find ctx.Interp.env "x" with
  | Values.VArr (Values.AInt a) -> a
  | _ -> Alcotest.fail "x is not an INTEGER array"

(** Run the reference EXAMPLE and return the resulting x. *)
let example_x ?k ?l () =
  get_x (Interp.run_block ~setup:(example_setup ?k ?l) (example_block ()))

let int_nd = Alcotest.testable (fun ppf a ->
    Fmt.pf ppf "%a" Fmt.(array ~sep:(any ";") int) (Nd.to_array a))
    (Nd.equal Int.equal)

(** Normalize the EXAMPLE nest. *)
let example_nest () =
  let b = example_block () in
  let fresh = Lf_core.Fresh.of_block b in
  match Lf_core.Normalize.of_nest ~fresh (List.hd b) with
  | Ok n -> n
  | Error e -> Alcotest.fail ("EXAMPLE did not normalize: " ^ e)

(** QCheck generator for small trip-count vectors (K, L arrays). *)
let trips_gen =
  QCheck.Gen.(
    let* k = 1 -- 6 in
    let* p = oneofl [ 1; 2; 3 ] in
    let k = k * p in
    let* l = array_size (return k) (0 -- 5) in
    return (p, l))

(** The QCheck seed of this process: [QCHECK_SEED] when set, else drawn
    once.  Every property starts from it, and a failing one prints it,
    so its report is enough to replay the failure. *)
let qcheck_seed =
  lazy
    (match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None ->
        Random.self_init ();
        Random.int 1_000_000_000)

(** A QCheck test as an Alcotest case, seeded by [qcheck_seed]. *)
let qcheck_test (t : QCheck.Test.t) =
  let seed = Lazy.force qcheck_seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "QCHECK_SEED=%d\n%!" seed;
        raise e )

let qcheck_case ?(count = 100) name gen prop =
  qcheck_test (QCheck.Test.make ~count ~name (QCheck.make gen) prop)
