(* mdgen: print the NBFORCE inputs of one benchmark seed as JSON.

   Usage: mdgen SEED ATOMS CUTOFF

   The molecule is the repo's calibrated synthetic SOD model
   (Lf_md.Workload.sod ~seed ~n) and the pairlist its cell-list pairlist
   at the cutoff, with the pCnt >= 1 guarantee (Lf_md.Workload.pairlist).
   The pairlist is printed in CSR form -- pcnt, 0-based pstart, 1-based
   partners -- because simdsim and simdbatch seed 1-D arrays only; the
   atoms as coordinates x/y/z, charge q and per-atom Lennard-Jones
   parameters sg (sigma) and ea (epsilon) of their kind.  The expected
   forces fx/fy/fz are Lf_md.Force.reference_owner_side: what the
   paper's Figure 13 kernel accumulates into F(At1). *)

open Lf_md

let floats name f a =
  Printf.printf "%S: [%s]" name
    (String.concat ", "
       (Array.to_list (Array.map (fun v -> Printf.sprintf "%.17g" (f v)) a)))

let ints name a =
  Printf.printf "%S: [%s]" name
    (String.concat ", " (Array.to_list (Array.map string_of_int a)))

let () =
  match Sys.argv with
  | [| _; seed; atoms; cutoff |] ->
      let seed = int_of_string seed and n = int_of_string atoms in
      let mol = Workload.sod ~seed ~n () in
      let pl = Workload.pairlist mol ~cutoff:(float_of_string cutoff) in
      let at = mol.Molecule.atoms in
      let pstart = Array.make n 0 in
      for i = 1 to n - 1 do
        pstart.(i) <- pstart.(i - 1) + pl.Pairlist.pcnt.(i - 1)
      done;
      let partners =
        Array.concat (Array.to_list pl.Pairlist.partners) |> Array.map succ
      in
      let f = Force.reference_owner_side mol pl in
      print_string "{";
      ints "pcnt" pl.Pairlist.pcnt;
      print_string ",\n";
      ints "pstart" pstart;
      print_string ",\n";
      ints "partners" partners;
      List.iter
        (fun (name, g) ->
          print_string ",\n";
          floats name g at)
        [
          ("x", fun a -> a.Molecule.x);
          ("y", fun a -> a.Molecule.y);
          ("z", fun a -> a.Molecule.z);
          ("q", fun a -> a.Molecule.charge);
          ("sg", fun a -> Force.sigma_of.(a.Molecule.kind));
          ("ea", fun a -> Force.epsilon_of.(a.Molecule.kind));
        ];
      List.iter
        (fun (name, g) ->
          print_string ",\n";
          floats name g f)
        [
          ("fx", fun v -> v.Force.fx);
          ("fy", fun v -> v.Force.fy);
          ("fz", fun v -> v.Force.fz);
        ];
      print_string "}\n"
  | _ ->
      prerr_endline "usage: mdgen SEED ATOMS CUTOFF";
      exit 2
