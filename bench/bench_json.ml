(* Machine-readable benchmark output.

   Experiments call [emit ~exp row] (or [emit_part] when one experiment
   has several tables) for every measurement; when the harness was given
   [--json [dir]], [flush_all] writes one BENCH_<exp>.json per experiment
   (a JSON array of flat objects).  Without [--json] the calls are no-ops,
   so table output stays the only cost.  Every row carries a ["quick"]
   field, so downstream consumers can tell smoke-sized measurements from
   full ones without tracking how the harness was invoked. *)

let default_dir = "bench/results"
let dir : string option ref = ref None
let quick : bool ref = ref false

type v = S of string | F of float | I of int | B of bool

let escape = Lf_obs.Chrome_trace.escape

let value_to_string = function
  | S s -> Printf.sprintf "\"%s\"" (escape s)
  | F f ->
      (* NaN/inf are not JSON; clamp to null. *)
      if Float.is_finite f then Printf.sprintf "%g" f else "null"
  | I i -> string_of_int i
  | B b -> if b then "true" else "false"

let rows : (string, (string * v) list list ref) Hashtbl.t = Hashtbl.create 8

let emit ~exp (row : (string * v) list) =
  match !dir with
  | None -> ()
  | Some _ ->
      let cell =
        match Hashtbl.find_opt rows exp with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add rows exp r;
            r
      in
      (* Self-tag: quick (smoke-sized) measurements must not be mistaken
         for full ones by whatever reads the file later. *)
      let row =
        if List.mem_assoc "quick" row then row else row @ [ ("quick", B !quick) ]
      in
      cell := row :: !cell

(* The shared emit path for experiments whose output has several tables:
   one BENCH_<exp>.json, rows discriminated by a leading "part" field. *)
let emit_part ~exp ~part (row : (string * v) list) =
  emit ~exp (("part", S part) :: row)

let flush_all () =
  match !dir with
  | None -> ()
  | Some d ->
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Hashtbl.iter
        (fun exp cell ->
          let path = Filename.concat d (Printf.sprintf "BENCH_%s.json" exp) in
          let oc = open_out path in
          output_string oc "[\n";
          List.rev !cell
          |> List.iteri (fun i row ->
                 if i > 0 then output_string oc ",\n";
                 let fields =
                   List.map
                     (fun (k, v) ->
                       Printf.sprintf "\"%s\": %s" (escape k)
                         (value_to_string v))
                     row
                 in
                 output_string oc ("  {" ^ String.concat ", " fields ^ "}"));
          output_string oc "\n]\n";
          close_out oc;
          Printf.printf "wrote %s (%d rows)\n" path (List.length !cell))
        rows
