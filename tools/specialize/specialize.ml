(* Generates a structure's shipped [Atomic_int] unit from its own functor
   body.

   [specialize.exe SRC] prints the text between SRC's line

     module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct

   and the next line that is [end] at column 0, after bindings of [K] to
   [Lf_kernel.Ordered.Int] and [M] to [Lf_kernel.Atomic_mem] and a line
   directive back to SRC, so the compiler reports errors against SRC.

   Why a copy: the compiler has no flambda, and dune's dev profile builds
   every library [-opaque], so a functor body reaches [M.get], [M.event]
   and [K.compare] through its arguments, as calls, on every search step.
   The kernel interfaces declare those three as primitives, so a unit that
   names the kernel modules directly compiles them inline.  The unit is
   the functor's text, unedited: the code that is measured is still the
   code that ships. *)

let header =
  "module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let rec index_from lines i p =
  if i >= Array.length lines then None
  else if p lines.(i) then Some i
  else index_from lines (i + 1) p

let () =
  let src =
    match Sys.argv with
    | [| _; src |] -> src
    | _ ->
        prerr_endline "usage: specialize SRC";
        exit 2
  in
  let lines =
    In_channel.with_open_text src In_channel.input_all
    |> String.split_on_char '\n' |> Array.of_list
  in
  let first =
    match index_from lines 0 (String.equal header) with
    | Some i -> i + 1
    | None -> fail "%s: no line %S" src header
  in
  let last =
    match index_from lines first (String.equal "end") with
    | Some i -> i
    | None -> fail "%s: Make has no closing [end] at column 0" src
  in
  print_string
    "module K = Lf_kernel.Ordered.Int\nmodule M = Lf_kernel.Atomic_mem\n";
  (* Line numbers count from 1; [first] is the body's first line's index. *)
  Printf.printf "# %d \"%s\"\n" (first + 1) src;
  for i = first to last - 1 do
    print_endline lines.(i)
  done
