(* The socket side: start the unmodified [lfdict serve] as a child
   process, drive it over one connection from this one thread, check every
   reply against the sequential model, and reconcile the client's counts
   with the server's own counters afterwards. *)

let now_ns = Calib.now_ns

(* The server configuration both socket workloads run, exactly as a user
   would type it. *)
let serve_flags =
  [
    "-i"; "fr-skiplist"; "--shards"; "4"; "--deadline-ms"; "100"; "--retry";
    "3"; "--retry-budget"; "64"; "--shed"; "256"; "--breaker";
  ]

(* Children still running; killed and reaped on any exit path. *)
let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let () = at_exit (fun () -> List.iter kill !live)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

type server = { pid : int; ic : in_channel; oc : out_channel }

let send s text =
  output_string s.oc text;
  output_char s.oc '\n';
  flush s.oc

let recv s = input_line s.ic

let ask s text =
  send s text;
  recv s

(* The client and the server both run on CPU 0: a round trip then never
   waits for another vCPU to wake, and the box-speed loops ([Calib]) time
   the CPU that does all the work.  Without taskset both run where the
   scheduler puts them. *)
let taskset =
  List.find_opt Sys.file_exists [ "/usr/bin/taskset"; "/bin/taskset" ]

let pin_self () =
  match taskset with
  | None -> ()
  | Some ts ->
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process ts
          [| ts; "-p"; "-c"; "0"; string_of_int (Unix.getpid ()) |]
          Unix.stdin null Unix.stderr
      in
      Unix.close null;
      ignore (Unix.waitpid [] pid)

(* Spawn the server and connect; ready once HEALTH answers.  Connection
   attempts are 1 ms apart, so the setup time resolves to about 1 ms. *)
let start ~exe =
  let port = free_port () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = exe :: "serve" :: "--port" :: string_of_int port :: serve_flags in
  let prog, argv =
    match taskset with
    | Some ts -> (ts, ts :: "-c" :: "0" :: argv)
    | None -> (exe, argv)
  in
  let pid = Unix.create_process prog (Array.of_list argv) null Unix.stderr Unix.stderr in
  Unix.close null;
  live := pid :: !live;
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let deadline = now_ns () + 30_000_000_000 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith "lfdict serve exited before accepting");
        if now_ns () > deadline then failwith "lfdict serve did not start";
        Unix.sleepf 0.001;
        connect ()
  in
  let fd = connect () in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let s =
    { pid; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  in
  let h = ask s "HEALTH" in
  if not (String.length h >= 3 && String.sub h 0 3 = "ok ") then
    failwith ("lfdict serve not healthy: " ^ h);
  s

let stop s =
  (match ask s "SHUTDOWN" with
  | "OK true" -> ()
  | r -> failwith ("SHUTDOWN answered " ^ r));
  close_in_noerr s.ic;
  reap s.pid

(* ---- Replies ---- *)

let answer_of_token = function
  | "t" -> Gen.Served true
  | "f" -> Gen.Served false
  | "failed" -> Gen.Failed
  | tok when String.length tok >= 6 && String.sub tok 0 6 = "stale:" ->
      Gen.Invalid
  | _ -> Gen.Refused

(* Per-key answers to one line, in request order; [Invalid] for every key
   when the reply is malformed. *)
let answers (line : Gen.line) reply =
  let n = List.length line.reqs in
  let invalid () = List.init n (fun _ -> Gen.Invalid) in
  match String.split_on_char ' ' reply with
  | "MULTI" :: count :: toks when line.multi ->
      if int_of_string_opt count = Some n && List.length toks = n then
        List.map answer_of_token toks
      else invalid ()
  | [ "OK"; "true" ] when not line.multi -> [ Gen.Served true ]
  | [ "OK"; "false" ] when not line.multi -> [ Gen.Served false ]
  | "REJECTED" :: _ when not line.multi -> [ Gen.Refused ]
  | "FAILED" :: _ when not line.multi -> [ Gen.Failed ]
  | _ -> invalid ()

(* Client-side counts over the whole connection (prefill included): what
   the server's own counters must agree with. *)
type counts = {
  mutable attempted : int;
  mutable served : int;
  mutable failed : int;  (** refused, failed or invalid *)
  mutable wrong : int;  (** answers that contradict the model *)
}

let counts () = { attempted = 0; served = 0; failed = 0; wrong = 0 }

let exchange s m c (line : Gen.line) =
  let reply = ask s line.text in
  List.iter2
    (fun req a ->
      c.attempted <- c.attempted + 1;
      (match a with
      | Gen.Served _ -> c.served <- c.served + 1
      | Gen.Refused | Gen.Failed | Gen.Invalid -> c.failed <- c.failed + 1);
      if not (Gen.apply m req a) then c.wrong <- c.wrong + 1)
    line.reqs (answers line reply)

(* ---- Server-side counters ---- *)

(* [key=value] fields of a HEALTH line, summed over the shards. *)
let health_sum line field =
  let prefix = field ^ "=" in
  let p = String.length prefix in
  List.fold_left
    (fun acc tok ->
      if String.length tok > p && String.sub tok 0 p = prefix then
        acc + int_of_string (String.sub tok p (String.length tok - p))
      else acc)
    0
    (String.split_on_char ' ' line)

(* A METRICS dump, summed by metric name over label sets. *)
let metrics s =
  send s "METRICS";
  let tbl = Hashtbl.create 64 in
  let rec read () =
    match recv s with
    | "END" -> ()
    | l when l = "" || l.[0] = '#' -> read ()
    | l ->
        (match String.rindex_opt l ' ' with
        | Some i ->
            let name =
              let head = String.sub l 0 i in
              match String.index_opt head '{' with
              | Some j -> String.sub head 0 j
              | None -> head
            in
            let v = float_of_string (String.sub l (i + 1) (String.length l - i - 1)) in
            Hashtbl.replace tbl name
              (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.)
        | None -> failwith ("bad METRICS line: " ^ l));
        read ()
  in
  read ();
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None -> failwith ("METRICS has no " ^ name)

(* Peak resident set of a process, MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else find ()
      in
      find ())

(* ---- One socket run ---- *)

type run = {
  setup_s : float list;  (** one per server started, at reference speed *)
  window_ns : float;  (** the timed window, scaled by the workload's factor *)
  cpu_window_ns : float;
      (** the same window scaled by the cpu factor, as the ladder's rungs
          are: what rung 8 is compared with *)
  raw_window_ns : int;  (** the same window as the clock read it *)
  speed : float;  (** median speed factor over the window's slices *)
  steps : int;  (** closed-loop steps completed in the window *)
  lines : int;
  ops : int;  (** key operations attempted in the window *)
  served : int;
  failed : int;
  wrong : int;
  lat : Samples.t;  (** ns per step, scaled by the workload's factor *)
  tail : Samples.t;
      (** ns per step, scaled by the cpu factor: the slowest steps wait on
          the server's GC, which tracks the cpu loop, not the pipe *)
  words : float;  (** server minor words allocated in the window *)
  minor_collections : float;
  promoted_words : float;
  rss_mb : float;  (** median over the servers of their peak RSS *)
  reconcile : (unit, string) result;
}

(* Spawn and prefill; returns the server, the model after prefill, and
   the set-up time in seconds at reference speed. *)
let setup ~exe (spec : Gen.spec) (inputs : Gen.inputs) c =
  let f0 = Calib.factor spec.scale in
  let t0 = now_ns () in
  let s = start ~exe in
  let m = Gen.model spec in
  List.iter (exchange s m c) (Gen.prefill_lines inputs.prefill);
  let t1 = now_ns () in
  let f = (f0 +. Calib.factor spec.scale) /. 2. in
  let dt = float_of_int (t1 - t0) *. f /. 1e9 in
  if c.failed > 0 || c.wrong > 0 then failwith "prefill was not served as modelled";
  (s, m, dt)

let reconcile s c =
  let health = ask s "HEALTH" in
  let calls = health_sum health "calls" and served = health_sum health "served" in
  let get = metrics s in
  let ops_total = int_of_float (get "lf_ops_total") in
  if calls <> c.attempted then
    Error (Printf.sprintf "client sent %d ops, HEALTH calls=%d" c.attempted calls)
  else if served <> c.served then
    Error (Printf.sprintf "client saw %d served, HEALTH served=%d" c.served served)
  else if ops_total <> c.served then
    Error
      (Printf.sprintf "client saw %d served, lf_ops_total=%d" c.served ops_total)
  else Ok ()

(* [servers] fresh servers in turn, each spawned, prefilled, measured
   for [seconds / servers], reconciled and shut down.  Each window starts
   from the same state, so runs are compared like for like; the samples
   and counts are pooled. *)
let run ~exe ~servers ~seconds (spec : Gen.spec) ~seed =
  pin_self ();
  let lat = Samples.create () and tail = Samples.create () in
  let speeds = ref [] and setup_s = ref [] in
  let steps = ref 0 and lines = ref 0 and ops = ref 0 and served = ref 0 in
  let failed = ref 0 and wrong = ref 0 and raw = ref 0 in
  let norm = ref 0. and cpu_norm = ref 0. in
  let words = ref 0. and collections = ref 0. and promoted = ref 0. in
  let rss = ref [] and reconciled = ref (Ok ()) in
  for _ = 1 to servers do
    let inputs = Gen.inputs spec ~seed in
    let c = counts () in
    let s, m, dt = setup ~exe spec inputs c in
    setup_s := dt :: !setup_s;
    let before = metrics s in
    let prefill_attempted = c.attempted and prefill_served = c.served in
    let f = ref 1. and fc = ref 1. and next_cal = ref 0 in
    let t = ref (now_ns ()) in
    let stop_at = !t + int_of_float (seconds /. float_of_int servers *. 1e9) in
    while !t < stop_at do
      if !t >= !next_cal then begin
        fc := Calib.factor Calib.Cpu;
        (f :=
           match spec.scale with
           | Calib.Cpu -> !fc
           | Calib.Socket -> !fc *. Calib.kernel ()
           | Calib.Memory -> !fc *. Calib.memory ());
        speeds := !f :: !speeds;
        t := now_ns ();
        next_cal := !t + Calib.slice_ns
      end;
      let step = spec.step inputs.steps in
      let ts = now_ns () in
      Array.iter (exchange s m c) step;
      let te = now_ns () in
      Samples.add lat (int_of_float (float_of_int (te - ts) *. !f));
      Samples.add tail (int_of_float (float_of_int (te - ts) *. !fc));
      raw := !raw + (te - !t);
      norm := !norm +. (float_of_int (te - !t) *. !f);
      cpu_norm := !cpu_norm +. (float_of_int (te - !t) *. !fc);
      t := te;
      incr steps;
      lines := !lines + Array.length step
    done;
    let after = metrics s in
    let delta name = after name -. before name in
    words := !words +. delta "lf_gc_minor_words_total";
    collections := !collections +. delta "lf_gc_minor_collections_total";
    promoted := !promoted +. delta "lf_gc_promoted_words_total";
    rss := vm_hwm_mb (string_of_int s.pid) :: !rss;
    (match reconcile s c with
    | Ok () -> ()
    | Error e -> reconciled := Error e);
    stop s;
    ops := !ops + c.attempted - prefill_attempted;
    served := !served + c.served - prefill_served;
    failed := !failed + c.failed;
    wrong := !wrong + c.wrong
  done;
  {
    setup_s = !setup_s;
    window_ns = !norm;
    cpu_window_ns = !cpu_norm;
    raw_window_ns = !raw;
    speed = Calib.median !speeds;
    steps = !steps;
    lines = !lines;
    ops = !ops;
    served = !served;
    failed = !failed;
    wrong = !wrong;
    lat;
    tail;
    words = !words;
    minor_collections = !collections;
    promoted_words = !promoted;
    rss_mb = Calib.median !rss;
    reconcile = !reconciled;
  }
