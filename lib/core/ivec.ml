type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 64) () = { data = Array.make (max 1 capacity) 0; len = 0 }
let length v = v.len
let is_empty v = v.len = 0
let clear v = v.len <- 0

let push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Ivec.get: index out of bounds";
  v.data.(i)

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let to_array v = Array.sub v.data 0 v.len
