(* A dictionary under test over int keys, as every harness takes it: the
   simulator's drivers, the real-domain runner, the chaos runs and the
   model checker's scenarios. *)

type t = {
  insert : int -> bool;
  delete : int -> bool;
  find : int -> bool;
  check : unit -> unit;
}

module Of (D : Lf_kernel.Dict_intf.S with type key = int) = struct
  let make t =
    let insert k = D.insert t k k in
    {
      insert;
      delete = D.delete t;
      find = D.mem t;
      check = (fun () -> D.check_invariants t);
    }
end

let apply d : Opgen.op -> bool = function
  | Insert k -> d.insert k
  | Delete k -> d.delete k
  | Find k -> d.find k
