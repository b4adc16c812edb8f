type command =
  | Op of Svc.req
  | Multi of Svc.req list
  | Kill of int
  | Health
  | Metrics
  | Slo
  | Replicas
  | Heal
  | Flightdump
  | Quit
  | Shutdown

let max_batch = 64

let parse line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  let int_arg what s =
    match int_of_string_opt s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  (* Batch validation, shared by MGET and MSET: non-empty, bounded, no
     duplicate keys (a duplicate in one batch has no well-defined
     per-key outcome — the scatter-gather reports one outcome per key). *)
  let check_batch n =
    if n = 0 then Error "empty batch"
    else if n > max_batch then
      Error (Printf.sprintf "batch too large (max %d)" max_batch)
    else Ok ()
  in
  let no_dup seen k ok =
    if List.mem k seen then Error (Printf.sprintf "duplicate key %d" k)
    else ok ()
  in
  match words with
  | [] -> Error "empty line"
  | verb :: args -> (
      match (String.uppercase_ascii verb, args) with
      | "PUT", [ k; v ] ->
          Result.bind (int_arg "key" k) (fun k ->
              Result.map (fun v -> Op (Svc.Insert (k, v))) (int_arg "value" v))
      | "DEL", [ k ] -> Result.map (fun k -> Op (Svc.Delete k)) (int_arg "key" k)
      | "GET", [ k ] -> Result.map (fun k -> Op (Svc.Find k)) (int_arg "key" k)
      | "MGET", keys ->
          Result.bind (check_batch (List.length keys)) (fun () ->
              let rec go acc seen = function
                | [] -> Ok (Multi (List.rev acc))
                | s :: rest ->
                    Result.bind (int_arg "key" s) (fun k ->
                        no_dup seen k (fun () ->
                            go (Svc.Find k :: acc) (k :: seen) rest))
              in
              go [] [] keys)
      | "MSET", args ->
          if args = [] then Error "empty batch"
          else if List.length args mod 2 <> 0 then
            Error "MSET wants key value pairs"
          else
            Result.bind (check_batch (List.length args / 2)) (fun () ->
                let rec go acc seen = function
                  | [] -> Ok (Multi (List.rev acc))
                  | k :: v :: rest ->
                      Result.bind (int_arg "key" k) (fun k ->
                          Result.bind (int_arg "value" v) (fun v ->
                              no_dup seen k (fun () ->
                                  go (Svc.Insert (k, v) :: acc) (k :: seen)
                                    rest)))
                  | [ _ ] -> assert false (* length is even *)
                in
                go [] [] args)
      | "KILL", [ s ] -> Result.map (fun s -> Kill s) (int_arg "shard" s)
      | "HEALTH", [] -> Ok Health
      | "METRICS", [] -> Ok Metrics
      | "SLO", [] -> Ok Slo
      | "REPLICAS", [] -> Ok Replicas
      | "HEAL", [] -> Ok Heal
      | "FLIGHTDUMP", [] -> Ok Flightdump
      | "QUIT", [] -> Ok Quit
      | "SHUTDOWN", [] -> Ok Shutdown
      | v, _ -> Error (Printf.sprintf "bad command %S" v))

let format_outcome = function
  | Svc.Served b -> Printf.sprintf "OK %b" b
  | Svc.Served_stale (b, lag) -> Printf.sprintf "STALE %b lag=%d" b lag
  | Svc.Rejected r -> "REJECTED " ^ Svc.reason_to_string r
  | Svc.Failed m -> "FAILED " ^ String.map (function '\n' -> ' ' | c -> c) m

(* One token per key, in request order: the wire answer to a batch can
   never collapse per-key outcomes into one error.  A replica-served
   read is tagged [stale:<t|f>:<lag>], never a bare [t]/[f] — the
   staleness contract survives batching. *)
let outcome_token = function
  | Svc.Served true -> "t"
  | Svc.Served false -> "f"
  | Svc.Served_stale (b, lag) ->
      Printf.sprintf "stale:%c:%d" (if b then 't' else 'f') lag
  | Svc.Rejected r -> Svc.reason_to_string r
  | Svc.Failed _ -> "failed"

let format_multi outcomes =
  Printf.sprintf "MULTI %d %s" (List.length outcomes)
    (String.concat " " (List.map outcome_token outcomes))

let format_error msg = "ERR " ^ msg
