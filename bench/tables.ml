(* Minimal fixed-width table printer for the experiment outputs. *)

let hr width = print_endline (String.make width '-')

let section title =
  print_newline ();
  hr 78;
  Printf.printf "%s\n" title;
  hr 78

let subsection title = Printf.printf "\n-- %s --\n" title

let row widths cells =
  let line =
    List.map2
      (fun w c ->
        if String.length c >= w then c else c ^ String.make (w - String.length c) ' ')
      widths cells
    |> String.concat "  "
  in
  print_endline line

let note fmt = Printf.printf ("   " ^^ fmt ^^ "\n")

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
