module openvcu

go 1.24
