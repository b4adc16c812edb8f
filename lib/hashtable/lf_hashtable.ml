(* Lock-free hash table with list-based buckets, after Michael (SPAA 2002,
   the paper's citation [8]): a fixed array of lock-free sorted linked
   lists.  Michael built his buckets from his own list; here each bucket is
   a Fomitchev-Ruppert list, so every bucket operation enjoys the
   O(n_bucket + c) amortized recovery bound instead of restart-from-head.

   The bucket count is fixed at creation (a power of two).  Michael's
   dynamic variant grows the bucket array; growth is orthogonal to the
   paper's contribution and is out of scope here (see DESIGN.md). *)

module type HASHABLE = sig
  include Lf_kernel.Ordered.S

  val hash : t -> int
end

module Make (K : HASHABLE) (M : Lf_kernel.Mem.S) = struct
  module Bucket = Lf_list.Fr_list.Make (K) (M)

  type key = K.t
  type 'a t = { buckets : 'a Bucket.t array; mask : int }

  let name = "lf-hashtable"

  let create_with ?(buckets = 64) ?(use_hints = true) () =
    if buckets <= 0 || buckets land (buckets - 1) <> 0 then
      invalid_arg "Lf_hashtable.create_with: buckets must be a power of two";
    {
      buckets =
        Array.init buckets (fun _ ->
            Bucket.create_with ~use_hints ~use_flags:true ());
      mask = buckets - 1;
    }

  let create () = create_with ()

  let bucket t k = t.buckets.(K.hash k land t.mask)

  let find t k = Bucket.find (bucket t k) k
  let mem t k = Bucket.mem (bucket t k) k
  let insert t k e = Bucket.insert (bucket t k) k e
  let delete t k = Bucket.delete (bucket t k) k

  let to_list t =
    Array.to_list t.buckets
    |> List.concat_map Bucket.to_list
    |> List.sort (fun (a, _) (b, _) -> K.compare a b)

  let length t =
    Array.fold_left (fun acc b -> acc + Bucket.length b) 0 t.buckets

  let check_invariants t = Array.iter Bucket.check_invariants t.buckets

  let iter t f = Array.iter (fun b -> Bucket.iter b f) t.buckets
end

module Int_key = struct
  include Lf_kernel.Ordered.Int

  (* Fibonacci hashing spreads consecutive integers across buckets. *)
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 17 land max_int
end

module Atomic_int = Make (Int_key) (Lf_kernel.Atomic_mem)

module String_key = struct
  include Lf_kernel.Ordered.String

  let hash = Hashtbl.hash
end

module Atomic_string = Make (String_key) (Lf_kernel.Atomic_mem)
